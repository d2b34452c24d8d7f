import concurrent.futures
import math
import os
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_strings, ref_ball
from root_data import basic_subordinates, computed_rows, integer_weights, optimal_duals

from delcodes import (
    Code,
    SearchBudgetExceeded,
    SearchConfig,
    SearchResult,
    Word,
    are_equivalent,
    build_candidates,
    build_conflict_graph,
    deletion_distance,
    enumerate_optimal_codes,
    is_basic,
    is_t_deletion_correcting,
    max_code_size,
    vt_code,
    weight,
)
from delcodes import _root_data, dominance, rows, search
from delcodes.dominance import _dominant_pairs_packed
from delcodes.search import (
    SEARCH_CAPS,
    _bits_of,
    _canonical_witness,
    _children,
    _orbit_roots,
    _root,
    _root_bound,
    _root_state,
    _solve_stack,
)
from delcodes.words import _ball_table, _images

EXAMPLE_CODE = Code(["00000", "11111", "00011", "11000", "10101", "01110"])

# pinned by the string-based oracle
CANDIDATE_COUNTS = {(4, 1): 6, (5, 1): 18, (6, 1): 46, (5, 2): 2}
OPTIMA_T1 = {2: 2, 3: 2, 4: 4, 5: 6, 6: 10}
OPTIMA_T2 = {3: 2, 4: 2, 5: 2, 6: 4}
# (t, n) -> optimum: t=1 n=8 is Sloane's, the rest settled by this search
KNOWN_OPTIMA = {
    **{(1, n): v for n, v in {**OPTIMA_T1, 7: 16, 8: 30}.items()},
    **{(2, n): v for n, v in {**OPTIMA_T2, 7: 5, 8: 7, 9: 11}.items()},
    **{(3, n): v for n, v in {4: 2, 5: 2, 6: 2, 7: 2, 8: 4, 9: 5, 10: 6}.items()},
}
FLAGS = [(b, f) for b in (True, False) for f in (True, False)]
# (t, n) -> the size of the min-degree greedy seed that the orbit-root dives
# replaced, under every flag pair
GREEDY_SEEDS = {
    **{(2, n): v for n, v in {3: 2, 4: 2, 5: 2, 6: 4, 7: 5, 8: 7, 9: 10, 10: 15}.items()},
    **{(3, n): v for n, v in {4: 2, 5: 2, 6: 2, 7: 2, 8: 4, 9: 5, 10: 6}.items()},
}
SMALLEST_MAX_CODE_5_1 = ("00000", "00011", "01101", "10010", "11100", "11111")
# (basic_only, force_constants) -> the canonical t=2 n=8 witness: without
# dominance pruning it may hold dominant words, and without forcing it need
# not hold the constant words
CANONICAL_8_2 = {
    (True, True): "00000000 00000111 00101010 01111100 10110011 11100000 11111111",
    (True, False): "00000000 00000111 00101010 01111100 10110011 11100000 11111111",
    (False, True): "00000000 00000111 00101010 01111100 10110000 11010011 11111111",
    (False, False): "00000000 00000111 00101010 00111111 10111100 11010011 11100000",
}
OPTIMAL_BASIC_CLASSES_5_1 = [
    ("00000", "00011", "01101", "10010", "11100", "11111"),
    ("00000", "00011", "01110", "10101", "11000", "11111"),
]


class TestCandidates:
    def test_pinned_counts(self):
        for (n, t), count in CANDIDATE_COUNTS.items():
            assert len(build_candidates(n, t, True)) == count

    def test_unpruned_is_full_space(self):
        for n, t in [(3, 1), (5, 1), (5, 2)]:
            assert len(build_candidates(n, t, False)) == 1 << n

    def test_low_and_high_weight_words_pruned(self):
        words = {str(w) for w in build_candidates(4, 1, True)}
        assert words == {"0000", "1111", "0011", "1100", "0110", "1001"}
        assert not any(weight(Word(s)) in (1, 3) for s in words)

    def test_constants_always_survive(self):
        for n, t in [(4, 1), (6, 1), (5, 2), (6, 2)]:
            words = set(build_candidates(n, t, True))
            assert Word.zeros(n) in words and Word.ones(n) in words

    def test_cap(self):
        with pytest.raises(ValueError):
            build_candidates(13, 1, True)
        # t >= n has no pruning row
        with pytest.raises(ValueError, match="no dominance pruning"):
            build_candidates(3, 3, True)
        with pytest.raises(ValueError, match=r"^deletion count 4 not supported \(1\.\.3\)$"):
            build_candidates(5, 4, False)


class TestConflictGraph:
    def test_fixture_edges(self):
        g = build_conflict_graph(
            [Word(s) for s in ("00000", "00011", "00001")], 1
        )
        a = g.index_of(Word("00000"))
        b = g.index_of(Word("00001"))
        c = g.index_of(Word("00011"))
        assert not g.has_edge(a, c)  # deletion distance 2
        assert g.has_edge(a, b) and g.has_edge(b, c)
        assert not g.has_edge(a, a)

    def test_example_code_is_independent(self):
        g = build_conflict_graph([Word(s) for s in all_strings(5)], 1)
        idx = [g.index_of(w) for w in EXAMPLE_CODE]
        assert all(not g.has_edge(i, j) for i in idx for j in idx if i != j)

    def test_matches_distance_rule_exhaustively(self):
        for n in (3, 4, 5):
            for t in (1, 2):
                if t >= n:
                    continue
                words = [Word(s) for s in all_strings(n)]
                g = build_conflict_graph(words, t)
                for i, u in enumerate(g.vertices):
                    for j in range(i + 1, len(g.vertices)):
                        v = g.vertices[j]
                        by_distance = deletion_distance(u, v) <= t
                        by_balls = bool(ref_ball(str(u), t) & ref_ball(str(v), t))
                        assert by_distance == by_balls == g.has_edge(i, j)
                assert g.windows == _ref_windows(g), (n, t)

    def test_symmetry(self):
        g = build_conflict_graph([Word(s) for s in all_strings(4)], 1)
        for i in range(len(g)):
            for j in range(len(g)):
                assert g.has_edge(i, j) == g.has_edge(j, i)

    def test_vertex_order_ascending(self):
        g = build_conflict_graph([Word("11"), Word("00"), Word("01")], 1)
        assert [str(w) for w in g.vertices] == ["00", "01", "11"]

    def test_bad_candidate_lists_rejected(self):
        five = [Word("00000"), Word("11111")]
        with pytest.raises(ValueError, match="^candidate list must be nonempty$"):
            build_conflict_graph([], 1)
        with pytest.raises(ValueError, match="^candidate length 4 differs from 5$"):
            build_conflict_graph(five + [Word("0000")], 1)
        with pytest.raises(ValueError, match=r"^deletion count 0 out of range 1\.\.5$"):
            build_conflict_graph(five, 0)

    def test_long_words_skip_the_ball_table(self, monkeypatch):
        def no_table(n, t):
            raise AssertionError(f"ball table of all {1 << n} words built")

        monkeypatch.setattr(search, "_ball_table", no_table)
        words = [Word("0" * 20), Word("0" * 19 + "1"), Word("0" * 18 + "11")]
        g = build_conflict_graph(words, 1)
        assert g.has_edge(0, 1) and g.has_edge(1, 2) and not g.has_edge(0, 2)
        assert g.windows == _ref_windows(g)

    def test_unknown_word_rejected(self):
        g = build_conflict_graph([Word("00"), Word("11")], 1)
        with pytest.raises(ValueError):
            g.index_of(Word("01"))


def _ref_windows(graph) -> dict[int, int]:
    """Each window some vertex ball holds, mapped to the mask of those
    vertices, from the string balls."""
    windows: dict[int, int] = {}
    for i, w in enumerate(graph.vertices):
        for y in ref_ball(str(w), graph.t):
            windows[int(y, 2)] = windows.get(int(y, 2), 0) | 1 << i
    return windows


@pytest.fixture
def serial_pool(monkeypatch):
    """A serial stand-in for the --threads pool, on 4 CPUs: no process is
    started at any count.  Yields the pools made, each with its tasks."""
    pools = []

    class SerialPool:
        def __init__(self, max_workers, initializer, initargs):
            self.max_workers = max_workers
            pools.append(self)
            # the one worker is this process
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            self.tasks = list(tasks)
            return map(fn, self.tasks)

    # the stand-in's worker state is this module's: restored afterwards
    monkeypatch.setattr(search, "_worker_search", ())
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(
        os, "sched_getaffinity", lambda pid: set(range(4)), raising=False
    )
    return pools


class TestMaxCodeSize:
    def test_pinned_optima(self):
        for n, expected in OPTIMA_T1.items():
            result = max_code_size(SearchConfig(n, 1))
            assert result.optimum == expected
            assert result.exhausted
            assert len(result.witness) == expected
            assert is_t_deletion_correcting(result.witness, 1)
        for n, expected in OPTIMA_T2.items():
            result = max_code_size(SearchConfig(n, 2))
            assert result.optimum == expected
            assert is_t_deletion_correcting(result.witness, 2)

    def test_example_code_is_optimal(self):
        assert max_code_size(SearchConfig(5, 1)).optimum == len(EXAMPLE_CODE)

    def test_flag_combinations_agree(self):
        for n in range(2, 7):
            for t in (1, 2):
                if t >= n:
                    continue
                sizes = {
                    max_code_size(
                        SearchConfig(n, t, basic_only=b, force_constants=f)
                    ).optimum
                    for b in (True, False)
                    for f in (True, False)
                }
                assert len(sizes) == 1, (n, t, sizes)

    def test_optimum_monotonicity(self):
        t1 = [max_code_size(SearchConfig(n, 1)).optimum for n in range(2, 8)]
        assert t1 == sorted(t1)
        for n in range(3, 8):
            l1 = max_code_size(SearchConfig(n, 1)).optimum
            l2 = max_code_size(SearchConfig(n, 2)).optimum
            assert l2 <= l1

    def test_deletion_count_must_be_below_length(self):
        with pytest.raises(ValueError):
            max_code_size(SearchConfig(3, 3))
        with pytest.raises(ValueError):
            max_code_size(SearchConfig(2, 2))

    def test_caps_enforced(self):
        with pytest.raises(ValueError):
            max_code_size(SearchConfig(13, 1))
        with pytest.raises(ValueError):
            max_code_size(SearchConfig(11, 2))
        with pytest.raises(ValueError):
            max_code_size(SearchConfig(5, 4))

    def test_budget_exhaustion_is_flagged_lower_bound(self):
        result = max_code_size(
            SearchConfig(7, 1, basic_only=False, time_budget=0.001)
        )
        assert not result.exhausted
        assert is_t_deletion_correcting(result.witness, 1)
        optimum = max_code_size(SearchConfig(7, 1)).optimum
        assert result.optimum <= optimum <= result.upper_bound

    def test_workers_do_not_change_optimum(self):
        outcomes = set()
        for workers in (1, 2, 8):
            r = max_code_size(SearchConfig(6, 1, workers=workers))
            outcomes.add((r.optimum, r.exhausted))
            assert is_t_deletion_correcting(r.witness, 1)
        assert outcomes == {(10, True)}

    def test_canonical_witness(self):
        r = max_code_size(SearchConfig(5, 1, canonical_witness=True))
        assert tuple(str(w) for w in r.witness) == SMALLEST_MAX_CODE_5_1
        unpruned = max_code_size(
            SearchConfig(5, 1, basic_only=False, canonical_witness=True)
        )
        assert unpruned.witness == r.witness

    @pytest.mark.parametrize("basic_only,force", FLAGS)
    def test_canonical_witness_pinned(self, basic_only, force):
        r = max_code_size(SearchConfig(8, 2, basic_only, force, canonical_witness=True))
        assert " ".join(map(str, r.witness)) == CANONICAL_8_2[basic_only, force]

    def test_canonical_witness_respects_deadline(self):
        graph, open0, chosen0, *_, cliques = _root(SearchConfig(7, 1))
        past = time.monotonic() - 1
        with pytest.raises(SearchBudgetExceeded, match="; the optimum 16 is proved$"):
            _canonical_witness(
                graph, open0, chosen0, KNOWN_OPTIMA[1, 7], past, cliques
            )

    @pytest.mark.parametrize("n,t", [(7, 1), (8, 2)])
    @pytest.mark.parametrize("basic_only,force", [(True, True), (False, False)])
    def test_canonical_find_searches_return_codes(
        self, n, t, basic_only, force, monkeypatch
    ):
        # each find search starts from the choice so far plus one vertex, so
        # one that reaches the optimum returns an optimal code through it
        solve = search._solve_stack
        calls = []

        def spy(adj, stack, *args):
            (pushed,) = stack
            result = solve(adj, stack, *args)
            calls.append((pushed[1], result))
            return result

        monkeypatch.setattr(search, "_solve_stack", spy)
        graph, open0, chosen0, *_, cliques = _root(
            SearchConfig(n, t, basic_only, force)
        )
        optimum = KNOWN_OPTIMA[t, n]
        _canonical_witness(graph, open0, chosen0, optimum, math.inf, cliques)
        reached = [(pushed, r[1]) for pushed, r in calls if r[0] >= optimum]
        assert reached
        for pushed, mask in reached:
            assert mask & pushed == pushed
            assert not any(graph.adj[i] & mask for i in _bits_of(mask))
            assert mask.bit_count() == optimum

    def test_json_document(self):
        doc = max_code_size(SearchConfig(4, 1)).to_json_dict()
        assert doc["optimum"] == 4 and doc["exhausted"] is True
        assert sorted(doc["witness"]) == doc["witness"]
        assert set(doc) == {
            "n", "t", "optimum", "upper_bound", "witness", "node_count",
            "wall_time_ms", "exhausted",
        }
        assert tuple(doc) == SearchResult._fields

    @pytest.mark.parametrize("n,t", [(6, 1), (8, 1), (9, 3)])
    def test_settled_at_root(self, n, t):
        r = max_code_size(SearchConfig(n, t))
        assert r.exhausted and r.node_count == 0
        assert r.optimum == r.upper_bound == KNOWN_OPTIMA[t, n] == len(r.witness)
        assert is_t_deletion_correcting(r.witness, t)

    def test_checksum_seed_keeps_pruned_codewords(self):
        # pruned codewords are swapped for candidate subordinates, not dropped
        for n, size in {7: 16, 9: 52, 10: 94, 11: 172, 12: 316}.items():
            mask, (graph, *_) = _seed(SearchConfig(n, 1))
            code = Code([w for i, w in enumerate(graph.vertices) if mask >> i & 1])
            assert mask.bit_count() == len(code) == size
            assert is_t_deletion_correcting(code, 1)

    def test_t1_seed_is_vt0_alone(self, monkeypatch):
        # one checksum class, under every flag pair
        residues = []

        def vt_spy(n, a):
            residues.append(a)
            return vt_code(n, a)

        monkeypatch.setattr(search, "vt_code", vt_spy)
        lengths = range(2, SEARCH_CAPS[1] + 1)
        for flags in FLAGS:
            for n in lengths:
                _seed(SearchConfig(n, 1, *flags))
        assert residues == [0] * (len(FLAGS) * len(lengths))

    @pytest.mark.parametrize("basic_only,force", FLAGS)
    def test_t1_seed_matches_the_old_rule(self, basic_only, force):
        # the greedy and the other residues never beat VT_0: they tie with
        # it below n = 7, and from there on VT_0 alone is the largest
        for n in range(2, 11):
            seed, root = _seed(SearchConfig(n, 1, basic_only, force))
            old = _greedy_then_best_residue(*root)
            assert seed.bit_count() == old.bit_count(), n
            if n >= 7:
                assert seed == old, n

    @pytest.mark.parametrize("basic_only,force", FLAGS)
    def test_dive_seeds_are_pinned(self, basic_only, force):
        # the orbit-root dives reach the min-degree greedy's sizes at t >= 2,
        # but for 14 against 15 at t=2 n=10 with both flags off
        for t in (2, 3):
            for n in range(t + 1, SEARCH_CAPS[t] + 1):
                mask, (graph, *_) = _seed(SearchConfig(n, t, basic_only, force))
                seed = mask.bit_count()
                if (n, t, basic_only, force) == (10, 2, False, False):
                    assert seed == GREEDY_SEEDS[t, n] - 1 == 14
                else:
                    assert seed == GREEDY_SEEDS[t, n], (n, t)
                code = Code([graph.vertices[i] for i in _bits_of(mask)])
                assert len(code) == seed and is_t_deletion_correcting(code, t)

    def test_two_workers_settle_t1_n7(self):
        r = max_code_size(SearchConfig(7, 1, workers=2))
        assert r.exhausted and r.optimum == 16
        assert is_t_deletion_correcting(r.witness, 1)

    def test_small_tree_never_starts_a_pool(self, monkeypatch):
        # both trees end inside the serial prefix
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        for n, t in ((7, 1), (9, 2)):
            serial = max_code_size(SearchConfig(n, t))
            r = max_code_size(SearchConfig(n, t, workers=2))
            assert serial.node_count < search._SERIAL_PREFIX_NODES
            assert r.node_count == serial.node_count
            assert r.witness == serial.witness

    def test_two_workers_keep_the_budget(self):
        # t=1 n=9 is open: the workers stop at the deadline, not at a proof
        r = max_code_size(SearchConfig(9, 1, workers=2, time_budget=1.0))
        assert not r.exhausted
        assert [r.optimum, r.upper_bound] == [52, 53]
        assert r.wall_time_ms < 2_000

    @pytest.mark.parametrize("workers", [3, 100, 10_000])
    def test_pool_size_is_capped(self, serial_pool, monkeypatch, workers):
        # no serial prefix: every orbit root goes to the pool
        monkeypatch.setattr(search, "_SERIAL_PREFIX_NODES", 0)
        r = max_code_size(SearchConfig(7, 1, workers=workers))
        assert r.exhausted and r.optimum == 16
        (pool,) = serial_pool
        assert pool.max_workers == min(workers, len(pool.tasks), 4)
        # one orbit root per task, popped first: the most open vertices
        opens = [om.bit_count() for (om, *_) in pool.tasks]
        assert opens[0] == max(opens)

    @pytest.mark.parametrize("prefix", [0, 1, 100])
    def test_prefix_and_tasks_expand_the_serial_tree(
        self, serial_pool, monkeypatch, prefix
    ):
        # the t=1 n=7 seed is optimal, so no incumbent changes, and a prefix
        # cut anywhere plus the tasks after it expand exactly the serial tree
        serial = max_code_size(SearchConfig(7, 1))
        monkeypatch.setattr(search, "_SERIAL_PREFIX_NODES", prefix)
        r = max_code_size(SearchConfig(7, 1, workers=2))
        assert len(serial_pool) == 1
        assert r.exhausted and r.optimum == serial.optimum
        assert r.node_count == serial.node_count

    def test_a_worker_beats_the_prefix_incumbent(self, serial_pool, monkeypatch):
        # no serial prefix: the pool starts from the 10-word dive seed, and a
        # worker's 11-word code replaces it.  Workers do not share their
        # incumbents, so the tasks expand 6 672 nodes against 2 394 serially
        monkeypatch.setattr(search, "_SERIAL_PREFIX_NODES", 0)
        config = SearchConfig(9, 2, workers=2)
        assert _seed(config)[0].bit_count() == 10
        r = max_code_size(config)
        assert len(serial_pool) == 1
        assert r.exhausted and r.optimum == r.upper_bound == 11
        assert len(r.witness) == 11 and is_t_deletion_correcting(r.witness, 2)
        assert r.node_count == 6_672
        assert max_code_size(SearchConfig(9, 2)).node_count == 2_394

    @pytest.mark.parametrize("affinity", [True, False])
    def test_one_cpu_starts_no_pool(self, serial_pool, monkeypatch, affinity):
        # the CPUs counted are those this process may run on: its affinity
        # set where the platform has one, else every CPU of the machine
        if affinity:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        else:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 1)
        monkeypatch.setattr(search, "_SERIAL_PREFIX_NODES", 0)
        serial = max_code_size(SearchConfig(7, 1))
        r = max_code_size(SearchConfig(7, 1, workers=2))
        assert serial_pool == []
        assert r == serial._replace(wall_time_ms=r.wall_time_ms)

    def test_nan_budget_rejected(self):
        for budget in (float("nan"), -1.0):
            with pytest.raises(ValueError, match="budget"):
                SearchConfig(9, 1, time_budget=budget).validate()

    def test_no_workers_rejected(self):
        with pytest.raises(ValueError, match="^worker count must be positive$"):
            SearchConfig(5, 1, workers=0).validate()


def _seed(config):
    """The chosen mask of the search's starting solution, as its root step
    builds it, and its root (graph, open0, chosen0)."""
    graph, open0, chosen0, _, seed, _, _ = _root(config)
    return seed, (graph, open0, chosen0)


def _greedy_independent(open_mask, adj, rank):
    """The historical t >= 2 seed: min-degree greedy over the open vertices,
    ties to the least rank; returns (size, chosen_mask)."""
    size = 0
    chosen = 0
    while open_mask:
        best_v = -1
        best_deg = best_rank = 0
        rem = open_mask
        while rem:
            low = rem & -rem
            v = low.bit_length() - 1
            rem ^= low
            deg = (adj[v] & open_mask).bit_count()
            if best_v < 0 or deg < best_deg or deg == best_deg and rank[v] < best_rank:
                best_v, best_deg, best_rank = v, deg, rank[v]
        chosen |= 1 << best_v
        size += 1
        open_mask &= ~(adj[best_v] | (1 << best_v))
    return size, chosen


def _greedy_then_best_residue(graph, open0, chosen0):
    """The t = 1 seed before it was VT_0 alone, as a chosen mask: the
    min-degree greedy extension of the root, ties to the least packed
    value, replaced by any checksum class that is strictly larger, its
    pruned words traded for their subordinates."""
    rank = [w.bits for w in graph.vertices]
    size, chosen = _greedy_independent(open0, graph.adj, rank)
    best_size, best_chosen = size + chosen0.bit_count(), chosen | chosen0
    n = graph.word_length
    subordinate = rows.pruning(n, 1)
    for a in range(n + 1):
        mask = 0
        for bits in vt_code(n, a).packed():
            if bits not in graph._index:
                bits = subordinate.get(bits)
            i = graph._index.get(bits)
            if i is not None:
                mask |= 1 << i
        if mask.bit_count() > best_size:
            best_size, best_chosen = mask.bit_count(), mask
    return best_chosen


def test_every_dominant_word_has_a_basic_subordinate():
    # dropping dominant words from the search is sound exactly when this holds
    for t, cap in SEARCH_CAPS.items():
        for n in range(t + 1, cap + 1):
            pairs = _dominant_pairs_packed(n, t)
            dominant = {u for u, _ in pairs}
            covered = {u for u, v in pairs if v not in dominant}
            assert covered == dominant, (n, t)


@pytest.fixture
def fresh_pruning():
    """The checked pruning pairs rebuilt from the rows, before and after."""
    rows.pruning.cache_clear()
    yield
    rows.pruning.cache_clear()


def test_build_candidates_rejects_unsound_pruning(monkeypatch, fresh_pruning):
    good = basic_subordinates(7, 1)
    for change in (
        # 0000110 is kept, but its ball is not inside that of 0000101
        {0b0000101: 0b0000110},
        # 0000001 lies inside the ball of 0000010, but is itself dropped
        {0b0000010: 0b0000001},
        # 0000001 kept while its complement, reversal and both are dropped
        {0b0000001: None},
    ):
        pairs = {u: v for u, v in {**good, **change}.items() if v is not None}
        monkeypatch.setitem(_root_data.PRUNE, (7, 1), rows.encode(pairs))
        rows.pruning.cache_clear()
        with pytest.raises(ValueError, match="unsound"):
            build_candidates(7, 1, True)
    assert len(build_candidates(7, 1, False)) == 128


def test_pruning_rows_match_the_pair_scan():
    keys = {(n, t) for t, cap in SEARCH_CAPS.items() for n in range(t + 1, cap + 1)}
    assert set(_root_data.PRUNE) == set(_root_data.DUALS) == keys
    for n, t in sorted(keys):
        assert rows.decode(_root_data.PRUNE[n, t]) == basic_subordinates(n, t)
        # the enumeration's class filter reads the dominant words from the row
        assert set(rows.pruning(n, t)) == {u for u, _ in _dominant_pairs_packed(n, t)}


@pytest.mark.parametrize("n,t", [
    (n, t) for t, cap in SEARCH_CAPS.items() for n in range(t + 1, min(cap, 10) + 1)
])
def test_weight_rows_match_the_simplex(n, t):
    weights, _ = computed_rows(n, t)
    assert rows.stored_weights(n, t) == weights


def test_search_reads_the_rows(monkeypatch, fresh_pruning):
    # under any flags neither the simplex nor the pair scan runs
    def never(*args):
        raise AssertionError("computed, not read from the rows")

    # no search loads tools/root_data.py, which holds the simplex
    # (test_cli.py's TestColdStart pins each job's modules)
    monkeypatch.setattr(dominance, "_dominant_pairs_packed", never)
    for flags in FLAGS:
        for t, cap in SEARCH_CAPS.items():
            for n in range(t + 1, cap + 1):
                r = max_code_size(SearchConfig(n, t, *flags, time_budget=0.05))
                assert is_t_deletion_correcting(r.witness, t)
                assert r.optimum <= r.upper_bound


@pytest.mark.parametrize("basic_only,force", FLAGS)
def test_stored_weights_bound_t1_n11_at_once(basic_only, force):
    # the simplex takes about 50 s here; the cover alone gives 318
    r = max_code_size(SearchConfig(11, 1, basic_only, force, time_budget=1))
    assert r.optimum >= 172 and r.upper_bound <= 175


@pytest.mark.parametrize("n,t", [
    (n, t) for t, cap in SEARCH_CAPS.items() for n in range(t + 1, min(cap, 9) + 1)
])
@pytest.mark.parametrize("basic_only,force", FLAGS)
def test_stored_row_bounds_as_tightly_as_the_simplex(n, t, basic_only, force):
    # the constant windows and the dominance keep the default root's unit c
    graph, open0, chosen0 = _root(SearchConfig(n, t, basic_only, force))[:3]
    stored = _root_bound(graph, open0, chosen0, rows.stored_weights(n, t))
    live = integer_weights(optimal_duals(graph, open0)) if open0 else {}
    assert stored[0] == _root_bound(graph, open0, chosen0, live)[0]


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([(n, t) for n in range(3, 7) for t in (1, 2) if t < n]),
       st.sampled_from(FLAGS), st.data())
def test_any_weights_certify_a_sound_bound(nt, flags, data):
    # a stale or wrong DUALS row is weak, never wrong
    n, t = nt
    graph, open0, chosen0 = _root(SearchConfig(n, t, *flags))[:3]
    size = 1 << (n - t)
    weights = dict(enumerate(
        data.draw(st.lists(st.integers(-3, 40), min_size=size, max_size=size))
    ))
    upper, cliques = _root_bound(graph, open0, chosen0, weights)
    # a weight below 1 weighs nothing: negative weights would break the bound
    positive = {y: w for y, w in weights.items() if w > 0}
    assert cliques == _root_bound(graph, open0, 0, positive)[1]
    unit, containers = cliques
    if containers:
        assert upper == chosen0.bit_count() + sum(w for _, w in containers) // unit
    else:
        # no certificate: the bound counts every open vertex
        assert unit == 1 and upper == (chosen0 | open0).bit_count()
    # the optima up to n = 6 are pinned by brute force
    assert upper >= KNOWN_OPTIMA[t, n]


@pytest.mark.parametrize("basic_only,force", FLAGS)
def test_certify_keeps_one_container_per_weighted_word(basic_only, force):
    # each positive-weight word some open ball holds is one container, and
    # no two of them share a mask at any stored root
    for t, cap in SEARCH_CAPS.items():
        for n in range(t + 1, cap + 1):
            graph, open0, _ = _root(SearchConfig(n, t, basic_only, force))[:3]
            if not open0:
                continue
            weights = rows.stored_weights(n, t)
            masks = {}
            for i, w in enumerate(graph.vertices):
                if open0 >> i & 1:
                    for y in ref_ball(str(w), t):
                        masks[int(y, 2)] = masks.get(int(y, 2), 0) | 1 << i
            expected = [(m, weights[y]) for y, m in masks.items() if weights.get(y, 0) > 0]
            assert len({m for m, _ in expected}) == len(expected), (n, t)
            _, containers = _root_bound(graph, open0, 0, weights)[1]
            assert sorted(containers) == sorted(expected), (n, t)


def _ball_walk_certificate(graph, open_mask, weights):
    """The certificate as _root_bound built it before the graph kept its
    window map: the open balls walked once for c and once more for the
    masks."""
    balls = _ball_table(graph.word_length, graph.t)
    vertices = [
        (i, w.bits) for i, w in enumerate(graph.vertices) if open_mask >> i & 1
    ]
    weight = {y: w for y, w in weights.items() if w > 0}
    c = min(
        (sum(weight.get(y, 0) for y in balls[x]) for _, x in vertices), default=0
    )
    if c <= 0:
        return 1, ()
    masks: dict[int, int] = {}
    for i, x in vertices:
        for y in balls[x]:
            if y in weight:
                masks[y] = masks.get(y, 0) | 1 << i
    return c, tuple((mask, weight[y]) for y, mask in masks.items())


@pytest.mark.parametrize("basic_only,force", FLAGS)
def test_certificate_matches_the_ball_walk(basic_only, force):
    # the same c and the same containers, each as its set of words
    def by_words(graph, cliques):
        unit, containers = cliques
        return unit, sorted(
            (sorted(graph.vertices[i].bits for i in _bits_of(mask)), w)
            for mask, w in containers
        )

    for n, t in sorted(_root_data.DUALS):
        graph, open0, _ = _root(SearchConfig(n, t, basic_only, force))[:3]
        weights = rows.stored_weights(n, t)
        expected = by_words(graph, _ball_walk_certificate(graph, open0, weights))
        certificate = _root_bound(graph, open0, 0, weights)[1]
        assert by_words(graph, certificate) == expected, (n, t)


@pytest.mark.parametrize("n,t", [(7, 1), (9, 2)])
def test_certificate_order_leaves_the_tree_unchanged(n, t):
    # the node test stops at the first container that settles it, and every
    # weight is positive, so whether it prunes does not depend on the order
    graph, _, chosen0, roots, _, upper, (unit, containers) = _root(SearchConfig(n, t))
    size0 = chosen0.bit_count()
    shuffled = list(containers)
    random.Random(n * 10 + t).shuffle(shuffled)
    # maximise from the forced words alone; collect from one below the optimum
    modes = [(size0, None)]
    if (n, t) == (7, 1):
        modes.append((KNOWN_OPTIMA[t, n] - 1, []))
    for floor, found in modes:
        runs = []
        for order in (containers, containers[::-1], tuple(shuffled)):
            kept = None if found is None else []
            best, _, nodes, done = _solve_stack(
                graph.adj, list(roots), floor, chosen0, math.inf, upper, (unit, order),
                kept,
            )
            runs.append((best, nodes, done, kept and sorted(kept)))
        assert runs[0][2] and runs[0][0] == KNOWN_OPTIMA[t, n] - (found is not None)
        assert runs[1] == runs[0] and runs[2] == runs[0], (n, t, floor)


class TestRootBound:
    @pytest.mark.parametrize("basic_only,force", FLAGS)
    def test_certified_bound_covers_known_optimum(self, basic_only, force):
        for (t, n), optimum in KNOWN_OPTIMA.items():
            config = SearchConfig(n, t, basic_only=basic_only, force_constants=force)
            graph, open0, chosen0 = _root(config)[:3]
            upper, _ = _root_bound(graph, open0, chosen0, rows.stored_weights(n, t))
            assert upper >= optimum, (n, t)

    def test_lp_settles_where_the_greedy_cover_does_not(self):
        graph, open0, chosen0 = _root(SearchConfig(8, 1))[:3]
        assert chosen0.bit_count() + len(_clique_partition(open0, graph.adj)) == 46
        assert _root_bound(graph, open0, chosen0, rows.stored_weights(8, 1))[0] == 30

    @pytest.mark.parametrize("basic_only,force", FLAGS)
    def test_stored_certificate_never_loses_to_the_greedy_cover(
        self, basic_only, force
    ):
        # the root bound is the certificate alone: at every stored root it
        # is no looser than the cover, and where the weights prove nothing
        # no vertex is open
        for n, t in sorted(_root_data.DUALS):
            graph, open0, chosen0 = _root(SearchConfig(n, t, basic_only, force))[:3]
            size0 = chosen0.bit_count()
            weights = rows.stored_weights(n, t)
            upper, (unit, containers) = _root_bound(graph, open0, chosen0, weights)
            if not containers:
                assert open0 == 0 and upper == size0 and unit == 1, (n, t)
            else:
                assert upper == size0 + sum(w for _, w in containers) // unit
            assert upper <= size0 + len(_clique_partition(open0, graph.adj)), (n, t)

    @pytest.mark.parametrize("n,t", [(7, 1), (8, 1), (9, 2), (10, 3)])
    def test_every_simplex_iterate_certifies(self, n, t):
        # the optimal duals, rounded, certify the known optimum
        graph, open0, chosen0 = _root(SearchConfig(n, t))[:3]
        weights = integer_weights(optimal_duals(graph, open0))
        unit, containers = _root_bound(graph, open0, 0, weights)[1]
        assert containers
        size0 = chosen0.bit_count()
        assert size0 + sum(w for _, w in containers) // unit >= KNOWN_OPTIMA[t, n]

    @pytest.mark.parametrize("n,t", [(5, 1), (6, 1), (7, 1), (6, 2), (8, 2), (8, 3)])
    def test_node_pruning_from_an_empty_incumbent(self, n, t):
        # no seed and no cap: every improvement must come through pruned nodes
        graph, open0, chosen0 = _root(SearchConfig(n, t))[:3]
        _, cliques = _root_bound(graph, open0, chosen0, rows.stored_weights(n, t))
        best, _, _, done = _solve_stack(
            graph.adj, [(open0, chosen0, len(graph))], 0, 0, math.inf, len(graph),
            cliques,
        )
        assert done and best == KNOWN_OPTIMA[t, n]

    @settings(deadline=None, max_examples=60)
    @given(st.sampled_from([(n, t) for n in range(3, 7) for t in (1, 2) if t < n]),
           st.sampled_from(FLAGS), st.data())
    def test_node_bound_covers_brute_force(self, nt, flags, data):
        n, t = nt
        config = SearchConfig(n, t, basic_only=flags[0], force_constants=flags[1])
        graph, open0, chosen0 = _root(config)[:3]
        weights = rows.stored_weights(n, t)
        upper, (unit, containers) = _root_bound(graph, open0, chosen0, weights)
        if not containers:
            # no open vertex: nothing to bound beyond the forced words
            assert open0 == 0 and upper == chosen0.bit_count() and unit == 1
            return
        indices = [i for i in range(len(graph)) if open0 >> i & 1]
        chosen = data.draw(
            st.lists(st.sampled_from(indices), max_size=14, unique=True)
        )
        om = sum(1 << i for i in chosen)
        reached = sum(w for mask, w in containers if mask & om)
        words = [str(graph.vertices[i]) for i in chosen]
        assert reached // unit >= _brute_max_code(words, t)


class TestSearchOrder:
    @pytest.mark.parametrize("n,t", [(7, 1), (8, 2), (9, 3)])
    @pytest.mark.parametrize("basic_only,force", FLAGS)
    def test_prepared_graph_is_the_packed_graph(self, n, t, basic_only, force):
        graph, open0, *_ = _root(SearchConfig(n, t, basic_only, force))
        packed = build_conflict_graph(build_candidates(n, t, basic_only), t)
        words = [w.bits for w in graph.vertices]
        assert sorted(words) == [w.bits for w in packed.vertices]
        assert _edges(graph) == _edges(packed)
        # ascending by open degree at the root, ties by packed value
        keys = [((a & open0).bit_count(), b) for a, b in zip(graph.adj, words)]
        assert keys == sorted(keys)

    def test_seed_is_the_first_largest_dive(self):
        # a dive from an orbit root keeps taking its lowest open label; the
        # t=2 n=10 seed is the first of the largest dives, at 15 words
        graph, _, _, roots, seed, _, _ = _root(SearchConfig(10, 2))
        dives = []
        for om, chosen, _ in roots:
            for v in range(len(graph)):
                if om >> v & 1:
                    chosen, om = chosen | 1 << v, om & ~graph.adj[v]
            dives.append(chosen)
        largest = max(chosen.bit_count() for chosen in dives)
        assert seed == next(d for d in dives if d.bit_count() == largest)
        assert largest == 15

    def test_root_bound_does_not_follow_the_labels(self):
        # the stored weights are keyed by word, not by label
        graph, open0, chosen0 = _root(SearchConfig(9, 3, basic_only=False))[:3]
        packed = build_conflict_graph(build_candidates(9, 3, False), 3)
        roots = ((graph, open0, chosen0), (packed, *_root_state(packed, True)))
        bounds = []
        for g, om, chosen in roots:
            upper, (unit, containers) = _root_bound(
                g, om, chosen, rows.stored_weights(9, 3)
            )
            pairs = sorted((_words(g, mask), w) for mask, w in containers)
            bounds.append((upper, unit, pairs))
        assert bounds[0] == bounds[1]


def _words(graph, mask: int) -> list[int]:
    """Packed values of the vertices in a mask, ascending."""
    return sorted(graph.vertices[i].bits for i in _bits_of(mask))


def _edges(graph) -> set[tuple[int, int]]:
    """Edges as pairs of packed values, the lesser first."""
    return {
        (u.bits, graph.vertices[j].bits)
        for u, a in zip(graph.vertices, graph.adj)
        for j in _bits_of(a)
        if u.bits < graph.vertices[j].bits
    }


def _brute_max_code(words: list[str], t: int) -> int:
    """Largest subset with pairwise disjoint deletion balls, by exhaustion."""
    balls = [ref_ball(w, t) for w in words]

    def best(rest: list[int]) -> int:
        if not rest:
            return 0
        first, others = rest[0], rest[1:]
        apart = [j for j in others if not balls[first] & balls[j]]
        return max(best(others), 1 + best(apart))

    return best(list(range(len(words))))


@st.composite
def _graphs(draw, max_vertices=12):
    """Adjacency masks of a random graph on 1..max_vertices vertices."""
    v = draw(st.integers(1, max_vertices))
    adj = [0] * v
    for i in range(v):
        for j in range(i + 1, v):
            if draw(st.booleans()):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return tuple(adj)


def _clique_partition(open_mask: int, adj: tuple[int, ...]) -> list[int]:
    """Greedy partition of the open vertices into cliques, built whole: a
    class takes the lowest open vertex left, then keeps taking the lowest
    one adjacent to all it holds."""
    classes = []
    rem = open_mask
    while rem:
        cls = 0
        r = rem
        while r:
            low = r & -r
            cls |= low
            r &= adj[low.bit_length() - 1]
        rem ^= cls
        classes.append(cls)
    return classes


def _reference_children(adj, om, size, chosen, best_size):
    """_children in two steps: the whole partition first, then a walk that
    skips the max(best_size - size, 0) classes whose bound cannot beat
    best_size.  Children are (open mask, chosen mask, bound)."""
    classes = _clique_partition(om, adj)
    skip = max(best_size - size, 0)
    out = []
    earlier = 0
    for cls in classes[:skip]:
        earlier |= cls
    for bound, cls in enumerate(classes[skip:], size + skip + 1):
        while cls:
            low = cls & -cls
            cls ^= low
            sub = earlier & ~adj[low.bit_length() - 1]
            out.append((sub, chosen | low, bound))
            earlier |= low
    return out


class TestBranchAndBound:
    @settings(deadline=None, max_examples=150)
    @given(_graphs())
    def test_three_modes_match_brute_force(self, adj):
        v = len(adj)
        full = (1 << v) - 1
        independent = [
            m for m in range(1 << v)
            if not any(m >> i & 1 and adj[i] & m for i in range(v))
        ]
        optimum = max(m.bit_count() for m in independent)
        none = (1, ())
        # maximise from an empty incumbent
        best, chosen, _, done = _solve_stack(
            adj, [(full, 0, v)], 0, 0, math.inf, v, none
        )
        assert done and best == optimum == chosen.bit_count()
        assert chosen in independent
        # find a set of size T: incumbent T - 1, cap T
        for size in range(1, v + 2):
            best, chosen, _, done = _solve_stack(
                adj, [(full, 0, size)], size - 1, 0, math.inf, size, none
            )
            assert done and (best >= size) == (size <= optimum)
            if best >= size:
                assert chosen in independent
        # collect every maximum set, each once
        found: list[int] = []
        _solve_stack(
            adj, [(full, 0, optimum)], optimum - 1, 0, math.inf, optimum, none, found
        )
        assert sorted(found) == [
            m for m in independent if m.bit_count() == optimum
        ]

    @settings(deadline=None, max_examples=200)
    @given(_graphs(max_vertices=24), st.data())
    def test_children_match_the_two_step_construction(self, adj, data):
        v = len(adj)
        om = data.draw(st.integers(0, (1 << v) - 1))
        chosen = data.draw(st.integers(0, (1 << v) - 1)) & ~om
        size = chosen.bit_count()
        classes = len(_clique_partition(om, adj))
        # from a recorded collect node (best_size below size) to a node with
        # no child (best_size at or above size + classes)
        for best_size in range(size - 2, size + classes + 2):
            node = (adj, om, size, chosen, best_size)
            children = _children(*node)
            assert children == _reference_children(*node), best_size
            for _, sub_chosen, bound in children:
                # the child takes one open vertex, and its bound counts it
                added = sub_chosen & ~chosen
                assert sub_chosen & chosen == chosen and added & om == added
                assert added.bit_count() == 1
                assert bound >= sub_chosen.bit_count()

    def test_node_counts(self):
        # expanded pops: 2 394 and 465 from the orbit roots in degree order;
        # the plain root (3 576, 1 049), the orbit chain popped last first
        # (3 020 at t=2 n=9), packed labels (24 913 at t=2 n=9) or a binary
        # branch (65 403, 8 261) fail
        for (n, t), limit in {(9, 2): 2_600, (7, 1): 550}.items():
            r = max_code_size(SearchConfig(n, t))
            assert r.exhausted and r.node_count < limit, (n, t, r.node_count)

    def test_collect_pass_at_t1_n7(self):
        graph, open0, chosen0 = _root(SearchConfig(7, 1))[:3]
        found: list[int] = []
        _, _, _, done = _solve_stack(
            graph.adj, [(open0, chosen0, 16)], 15, 0, math.inf, 16, (1, ()), found
        )
        assert done and len(found) == len(set(found)) == 158


@st.composite
def _symmetric_graphs(draw, max_vertices=12):
    """A random graph on 1..max_vertices vertices, a random involution of
    its vertices that is an automorphism, and an open set that the
    involution maps onto itself (possibly empty)."""
    v = draw(st.integers(1, max_vertices))
    order = draw(st.permutations(range(v)))
    sigma = list(range(v))
    for k in range(draw(st.integers(0, v // 2))):
        a, b = order[2 * k], order[2 * k + 1]
        sigma[a], sigma[b] = b, a
    adj = [0] * v
    for i in range(v):
        for j in range(i + 1, v):
            # one draw per edge orbit {ij, sigma(i)sigma(j)}
            if (i, j) <= tuple(sorted((sigma[i], sigma[j]))) and draw(st.booleans()):
                for a, b in ((i, j), (sigma[i], sigma[j])):
                    adj[a] |= 1 << b
                    adj[b] |= 1 << a
    open_mask = 0
    for i in range(v):
        if i <= sigma[i] and draw(st.booleans()):
            open_mask |= 1 << i | 1 << sigma[i]
    return tuple(adj), sigma, open_mask


def _image(perm: list[int], mask: int) -> int:
    return sum(1 << perm[i] for i in _bits_of(mask))


class TestSymmetry:
    @pytest.mark.parametrize("t", sorted(SEARCH_CAPS))
    def test_symmetries_are_automorphisms(self, t, monkeypatch):
        # every search graph within the caps, under all four flag pairs; the
        # search maps only the orbits it walks, so this is what covers the
        # group's closure on every vertex
        orbits = []

        def spy(*args):
            orbits.append(args[-1])
            return _orbit_roots(*args)

        monkeypatch.setattr(search, "_orbit_roots", spy)
        for n in range(t + 1, SEARCH_CAPS[t] + 1):
            for basic_only in (True, False):
                graph, *_ = _root(SearchConfig(n, t, basic_only))
                ident = list(range(len(graph)))
                complement, reverse, both = (
                    [graph.index_of(Word.from_bits(_images(w.bits, n)[k], n))
                     for w in graph.vertices]
                    for k in (1, 2, 3)
                )
                assert [reverse[i] for i in complement] == both
                # the search's orbit function gives each vertex's orbit
                orbit = orbits.pop()
                assert all(
                    orbit(v) == 1 << v | 1 << complement[v] | 1 << reverse[v]
                    | 1 << both[v]
                    for v in ident
                ), (n, t, basic_only)
                neighbours = [frozenset(_bits_of(m)) for m in graph.adj]
                # the two generators suffice, and each is a bijection
                for perm in (complement, reverse):
                    assert sorted(perm) == ident
                    image = perm.__getitem__
                    assert all(
                        frozenset(map(image, nb)) == neighbours[perm[v]]
                        for v, nb in enumerate(neighbours)
                    ), (n, t, basic_only)
                for force in (True, False):
                    config = SearchConfig(n, t, basic_only, force)
                    _, open0, chosen0 = _root(config)[:3]
                    for perm in (complement, reverse):
                        assert _image(perm, open0) == open0, config
                        assert _image(perm, chosen0) == chosen0, config

    @settings(deadline=None, max_examples=150)
    @given(_symmetric_graphs())
    def test_orbit_roots_match_brute_force(self, graph):
        adj, sigma, om = graph
        v = len(adj)
        independent = [
            m for m in range(1 << v)
            if not m & ~om and not any(m >> i & 1 and adj[i] & m for i in range(v))
        ]
        optimum = max(m.bit_count() for m in independent)
        none = (1, ())
        roots = _orbit_roots(adj, om, 0, v, lambda u: 1 << u | 1 << sigma[u])
        if not om:
            assert roots == [(0, 0, v)]
        # maximise from an empty incumbent
        best, chosen, _, done = _solve_stack(
            adj, list(roots), 0, 0, math.inf, v, none
        )
        assert done and best == optimum == chosen.bit_count()
        assert chosen in independent
        # a --threads worker: each root alone from an empty incumbent
        assert optimum == max(
            _solve_stack(adj, [root], 0, 0, math.inf, v, none)[0] for root in roots
        )
        # collect reaches every orbit of maximum sets, each set at most once
        found: list[int] = []
        _solve_stack(
            adj, list(roots), optimum - 1, 0, math.inf, optimum, none, found
        )
        maximum = {m for m in independent if m.bit_count() == optimum}
        assert len(found) == len(set(found)) and set(found) <= maximum
        assert {min(m, _image(sigma, m)) for m in found} == {
            min(m, _image(sigma, m)) for m in maximum
        }

    def test_empty_open_root_is_collected(self):
        # t=3 n=7: the forced words block every other word and are optimal
        graph, open0, chosen0, roots, seed, upper, cliques = _root(SearchConfig(7, 3))
        size0 = chosen0.bit_count()
        assert open0 == 0 and size0 == KNOWN_OPTIMA[3, 7]
        assert cliques == (1, ()) and upper == size0 and seed == chosen0
        assert roots == [(0, chosen0, size0)]
        found: list[int] = []
        *_, done = _solve_stack(
            graph.adj, roots, size0 - 1, 0, math.inf, size0, (1, ()), found
        )
        assert done and found == [chosen0]


class TestEnumerateOptimal:
    def test_n5_t1_classes(self):
        codes = enumerate_optimal_codes(SearchConfig(5, 1))
        assert [tuple(str(w) for w in c) for c in codes] == OPTIMAL_BASIC_CLASSES_5_1

    def test_contains_example_code_class(self):
        codes = enumerate_optimal_codes(SearchConfig(5, 1))
        assert any(are_equivalent(c, EXAMPLE_CODE) for c in codes)

    def test_returned_codes_are_valid(self):
        for n, t in [(4, 1), (5, 1), (5, 2)]:
            config = SearchConfig(n, t)
            optimum = max_code_size(config).optimum
            codes = enumerate_optimal_codes(config)
            assert codes
            for c in codes:
                assert len(c) == optimum
                assert is_t_deletion_correcting(c, t)
                assert is_basic(c, t)

    def test_pairwise_inequivalent(self):
        codes = enumerate_optimal_codes(SearchConfig(5, 1))
        for i in range(len(codes)):
            for j in range(i + 1, len(codes)):
                assert not are_equivalent(codes[i], codes[j])

    def test_flag_independent(self):
        # with both flags off the collect passes at (8,2), (9,2), (9,3) and
        # (10,3) expand 1 184, 42 773, 490 and 15 977 nodes
        for n, t in [(5, 1), (6, 1), (6, 2), (7, 1), (8, 2), (9, 2), (9, 3), (10, 3)]:
            base = enumerate_optimal_codes(SearchConfig(n, t))
            alt = enumerate_optimal_codes(
                SearchConfig(n, t, basic_only=False, force_constants=False)
            )
            assert base == alt, (n, t)

    def test_class_counts(self):
        # the collect pass reaches every optimum: a step that keeps one
        # optimum of several (a degree-1/2 reduction did) loses classes,
        # 20 -> 15 at t=2, n=7
        counts = {
            (6, 1): 3, (7, 1): 46, (8, 1): 1, (6, 2): 2, (7, 2): 20, (8, 2): 91,
            (9, 2): 24, (7, 3): 1, (9, 3): 26, (10, 3): 642,
        }
        for (n, t), count in counts.items():
            assert len(enumerate_optimal_codes(SearchConfig(n, t))) == count, (n, t)

    def test_t1_n8_class_is_vt0(self):
        # the one optimal basic class at t = 1, n = 8 is the checksum code's
        (code,) = enumerate_optimal_codes(SearchConfig(8, 1))
        assert are_equivalent(code, vt_code(8, 0))

    def test_budget_not_a_cap_bounds_enumeration(self):
        # any (n, t) that a search takes is enumerated until the budget ends it
        with pytest.raises(SearchBudgetExceeded):
            enumerate_optimal_codes(SearchConfig(9, 1, time_budget=0.2))
        with pytest.raises(ValueError):
            enumerate_optimal_codes(SearchConfig(13, 1))

    def test_budget_exhaustion_raises(self):
        with pytest.raises(SearchBudgetExceeded):
            enumerate_optimal_codes(
                SearchConfig(7, 1, basic_only=False, time_budget=1e-6)
            )

    def test_one_root_step(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("enumeration must not start a nested search")

        calls = []
        root = search._root

        def counted(config):
            calls.append(config)
            return root(config)

        passes = []
        solve = search._solve_stack

        def solve_counted(*args, **kwargs):
            result = solve(*args, **kwargs)
            passes.append(result[2])
            return result

        monkeypatch.setattr(search, "max_code_size", refuse)
        monkeypatch.setattr(SearchConfig, "_replace", refuse)
        monkeypatch.setattr(search, "_root", counted)
        monkeypatch.setattr(search, "_solve_stack", solve_counted)
        codes = enumerate_optimal_codes(SearchConfig(7, 1))
        assert len(codes) == 46 and calls == [SearchConfig(7, 1)]
        # one collect pass, with its expanded nodes
        assert passes == [5326]
        passes.clear()
        assert len(enumerate_optimal_codes(SearchConfig(6, 1))) == 3
        assert passes == [63]

    @pytest.mark.parametrize("n,t", [(6, 1), (7, 1), (6, 2), (7, 2), (7, 3)])
    def test_certificate_keeps_every_collected_code(self, n, t):
        # the certificate prunes only subtrees without a code of the optimum's
        # size, so the collection gathers the same masks with it as without
        graph, _, _, roots, _, upper, cliques = _root(SearchConfig(n, t))
        optimum = KNOWN_OPTIMA[t, n]
        gathered = []
        for certificate in (cliques, (1, ())):
            found: list[int] = []
            *_, done = _solve_stack(
                graph.adj, list(roots), optimum - 1, 0, math.inf, optimum, certificate,
                found,
            )
            assert done
            gathered.append(sorted(found))
        assert gathered[0] == gathered[1]

    @pytest.mark.parametrize("basic,force", FLAGS)
    @pytest.mark.parametrize("n,t", [(6, 1), (7, 1), (6, 2), (7, 2), (7, 3)])
    def test_collect_from_any_floor_below_the_optimum(self, n, t, basic, force):
        # a code two or more above the floor lifts it, and a recorded node is
        # expanded, so a floor that falls short gathers the same masks
        graph, _, _, roots, _, upper, cliques = _root(
            SearchConfig(n, t, basic_only=basic, force_constants=force)
        )
        optimum = KNOWN_OPTIMA[t, n]
        gathered = []
        for floor in sorted({0, max(optimum - 2, 0), optimum - 1}):
            found: list[int] = []
            best, *_, done = _solve_stack(
                graph.adj, list(roots), floor, 0, math.inf, upper, cliques, found
            )
            assert done and best == optimum - 1, floor
            gathered.append(sorted(found))
        assert all(masks == gathered[-1] for masks in gathered)
        assert {mask.bit_count() for mask in gathered[-1]} == {optimum}

    @pytest.mark.parametrize(
        "n,t",
        [(n, t) for t in SEARCH_CAPS for n in range(t + 1, 8)]
        + [(8, 2), (8, 3), (9, 2), (9, 3), (10, 3)],
    )
    def test_canonical_witness_is_the_least_class(self, n, t):
        # under the default flags the candidates are the basic words, so the
        # least optimal code among them is the least member of the first class
        witness = max_code_size(SearchConfig(n, t, canonical_witness=True)).witness
        assert witness == enumerate_optimal_codes(SearchConfig(n, t))[0]
