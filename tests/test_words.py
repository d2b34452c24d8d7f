import gc
import operator
import random
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import all_strings, ref_ball, ref_indel_bfs, ref_lcs, words_st

from delcodes import (
    MAX_LEN,
    Word,
    WordSet,
    complement,
    delete_at,
    deletion_ball,
    deletion_distance,
    hamming_distance,
    is_subsequence,
    lcs_length,
    levenshtein_indel,
    reverse,
    reverse_complement,
    run_length_encode,
    weight,
)
from delcodes.words import (
    _ball_packed,
    _ball_table,
    _deletion_masks,
    _images,
    _orbit_leaders,
)


class TestWordBasics:
    def test_parse_and_str_roundtrip(self):
        for s in ("", "0", "1", "0100", "1" * 62):
            assert str(Word(s)) == s

    def test_rejects_bad_symbols(self):
        with pytest.raises(ValueError):
            Word("01a0")
        with pytest.raises(ValueError, match=r"^invalid symbol 'a' in word '01a'$"):
            Word("01a")
        # int(s, 2) reads these, the word parser does not
        for s in ("0_1", " 01", "01\n", "+1", "-1"):
            with pytest.raises(ValueError, match="invalid symbol"):
                Word(s)

    def test_rejects_overlong(self):
        Word("0" * MAX_LEN)
        with pytest.raises(ValueError):
            Word("0" * (MAX_LEN + 1))
        with pytest.raises(ValueError):
            Word.from_bits(0, MAX_LEN + 1)

    def test_from_bits_range(self):
        with pytest.raises(ValueError):
            Word.from_bits(4, 2)
        with pytest.raises(ValueError):
            Word.from_bits(-1, 2)

    def test_packed_order_is_lexicographic(self):
        ws = [str(w) for w in Word.all_of_length(4)]
        assert ws == sorted(ws)
        # against a non-Word Python raises TypeError, not AttributeError
        with pytest.raises(TypeError):
            Word("0") < 1
        with pytest.raises(TypeError):
            sorted([Word("01"), None])

    def test_symbol_positions_are_one_based_from_left(self):
        w = Word("0100")
        assert [w.symbol(i) for i in range(1, 5)] == [0, 1, 0, 0]
        with pytest.raises(ValueError):
            w.symbol(0)
        with pytest.raises(ValueError):
            w.symbol(5)

    def test_equality_and_hash(self):
        assert Word("0100") == Word.from_bits(0b0100, 4)
        assert Word("100") != Word("0100")
        assert len({Word("01"), Word("01"), Word("10")}) == 2

    def test_orderings_follow_length_then_packed_value(self):
        words = [Word(s) for n in range(4) for s in all_strings(n)]
        for u in words:
            for v in words:
                a, b = (u.n, u.bits), (v.n, v.bits)
                assert (u < v, u <= v, u > v, u >= v) == (a < b, a <= b, a > b, a >= b)
        for other in ("01", 1, None, (2, 1)):
            for op in (operator.lt, operator.le, operator.gt, operator.ge):
                with pytest.raises(TypeError):
                    op(Word("01"), other)
                with pytest.raises(TypeError):
                    op(other, Word("01"))

    def test_empty_word_is_valid(self):
        e = Word("")
        assert len(e) == 0 and str(e) == ""
        assert e == Word.from_bits(0, 0)

    def test_operations_at_the_length_cap(self):
        s = ("01" * 31)
        w = Word(s)
        assert len(w) == MAX_LEN
        assert weight(w) == 31
        assert reverse(reverse(w)) == w
        assert complement(complement(w)) == w
        assert str(delete_at(w, 62)) == s[:-1]
        assert lcs_length(w, w) == MAX_LEN
        assert len(deletion_ball(w, 1)) == 62  # alternating word, maximal ball
        assert len(run_length_encode(w)) == 62


class TestSimpleTransforms:
    def test_weight_fixtures(self):
        assert weight(Word("00000")) == 0
        assert weight(Word("10101")) == 3
        assert weight(Word("11000")) == 2

    def test_transform_fixtures(self):
        assert str(complement(Word("00011"))) == "11100"
        assert str(reverse(Word("00011"))) == "11000"
        for n in (1, 4, 9):
            assert reverse_complement(Word.zeros(n)) == Word.ones(n)

    @given(words_st())
    def test_transforms_are_involutions_and_commute(self, w):
        assert complement(complement(w)) == w
        assert reverse(reverse(w)) == w
        assert reverse_complement(w) == complement(reverse(w)) == reverse(complement(w))

    @given(words_st(max_len=62))
    def test_reverse_reads_the_string_backwards(self, w):
        assert str(reverse(w)) == str(w)[::-1]

    @given(words_st())
    def test_weight_complement(self, w):
        assert weight(w) + weight(complement(w)) == len(w)


class TestDeleteAt:
    def test_fixtures(self):
        assert str(delete_at(Word("0100"), 1)) == "100"
        assert str(delete_at(Word("0100"), 3)) == "010"
        assert delete_at(Word("1"), 1) == Word("")

    def test_position_out_of_range(self):
        with pytest.raises(ValueError):
            delete_at(Word("0100"), 0)
        with pytest.raises(ValueError):
            delete_at(Word("0100"), 5)
        with pytest.raises(ValueError):
            delete_at(Word(""), 1)

    @given(words_st(min_len=1), st.data())
    def test_matches_string_slicing(self, w, data):
        i = data.draw(st.integers(min_value=1, max_value=len(w)))
        s = str(w)
        assert str(delete_at(w, i)) == s[: i - 1] + s[i:]


class TestDeletionBall:
    def test_fixtures(self):
        assert deletion_ball(Word("0100"), 1).strings() == ["000", "010", "100"]
        assert deletion_ball(Word("00000"), 1).strings() == ["0000"]
        assert deletion_ball(Word("10101"), 2) == WordSet(
            3, [Word(s) for s in ref_ball("10101", 2)]
        )

    def test_zero_deletions(self):
        w = Word("0110")
        ball = deletion_ball(w, 0)
        assert list(ball) == [w]

    def test_t_out_of_range(self):
        with pytest.raises(ValueError):
            deletion_ball(Word("01"), 3)
        with pytest.raises(ValueError):
            deletion_ball(Word("01"), -1)

    def test_full_deletion_leaves_empty_word(self):
        assert deletion_ball(Word("0110"), 4).strings() == [""]

    @given(words_st(max_len=8), st.integers(min_value=0, max_value=3))
    def test_matches_string_oracle(self, w, t):
        if t > len(w):
            return
        assert set(deletion_ball(w, t).strings()) == ref_ball(str(w), t)

    def test_ball_recursion_exhaustive(self):
        # D_t(w) is the union of D_{t-1} over the one-deletion neighbours
        for n in range(1, 11):
            for w in Word.all_of_length(n):
                for t in range(1, min(3, n) + 1):
                    step = set()
                    for x in deletion_ball(w, 1):
                        step |= set(deletion_ball(x, t - 1).strings())
                    assert step == set(deletion_ball(w, t).strings())

    def test_membership_iff_subsequence_exhaustive(self):
        for n in range(0, 9):
            for w in Word.all_of_length(n):
                for t in range(0, n + 1):
                    ball = deletion_ball(w, t)
                    for x in Word.all_of_length(n - t):
                        assert (x in ball) == is_subsequence(x, w)

    def test_singleton_ball_iff_constant(self):
        # degenerate at t = n, where every ball collapses to the empty word
        for n in range(2, 11):
            for t in (1, 2):
                if t >= n:
                    continue
                constants = {Word.zeros(n), Word.ones(n)}
                for w in Word.all_of_length(n):
                    assert (len(deletion_ball(w, t)) == 1) == (w in constants)

    @given(words_st(min_len=1), st.integers(min_value=0, max_value=3))
    def test_commutes_with_symmetries(self, w, t):
        if t > len(w):
            return
        ball = set(deletion_ball(w, t).strings())
        assert set(deletion_ball(reverse(w), t).strings()) == {
            s[::-1] for s in ball
        }
        assert set(deletion_ball(complement(w), t).strings()) == {
            s.translate(str.maketrans("01", "10")) for s in ball
        }


class TestBallTables:
    def test_ball_table_matches_per_word_balls(self):
        for n in range(1, 11):
            for t in range(1, min(3, n) + 1):
                table = _ball_table(n, t)
                assert len(table) == 1 << n
                for b in range(1 << n):
                    assert set(table[b]) == _ball_packed(b, n, t), (n, t, b)

    def test_rows_are_tuples_of_distinct_ints(self):
        for n, t in ((1, 1), (6, 1), (6, 2), (6, 3), (6, 6), (10, 2), (10, 3)):
            for row in _ball_table(n, t):
                assert type(row) is tuple and len(set(row)) == len(row), (n, t)
                assert all(type(y) is int for y in row), (n, t)

    def test_rows_take_a_few_ints_of_memory(self):
        # as frozensets, one hash table each, the rows took 4.53 MB
        table = _ball_table(13, 1)
        size = sys.getsizeof(table) + sum(map(sys.getsizeof, table))
        assert size < 1.5e6, size

    def test_rows_list_the_images_in_deletion_bit_order(self):
        # row order sets the graph's window order, certify's container
        # order, and so decides how soon the node test's loop stops: a set
        # fed the images bit s = 0..n - 1
        for n in range(1, 14):
            masks = _deletion_masks(n)
            ref = []
            for b in range(1 << n):
                row = set()
                for lo, hi in masks:
                    row.add(b & lo | (b >> 1) & hi)
                ref.append(tuple(row))
            assert _ball_table(n, 1) == tuple(ref), n

    def test_rows_share_one_int_object_per_word(self):
        # one int per (n - 1)-bit word keeps the (13, 1) rows near 0.8 MB
        table = _ball_table(13, 1)
        assert len({id(y) for row in table for y in row}) <= 1 << 12

    def test_builds_freeze_their_tables(self):
        was = gc.isenabled()
        try:
            for state in (True, False):
                (gc.enable if state else gc.disable)()
                # the uncached builds, on success and on error
                frozen = gc.get_freeze_count()
                table = _ball_table.__wrapped__(5, 2)
                assert gc.isenabled() is state
                # the new table sits in the permanent generation
                assert gc.get_freeze_count() > frozen
                tracked = {id(o) for o in gc.get_objects()}
                assert not any(id(ball) in tracked for ball in table)
                with pytest.raises(ValueError):
                    _ball_table.__wrapped__(-1, 1)
                assert gc.isenabled() is state
        finally:
            (gc.enable if was else gc.disable)()

    def test_tables_need_one_to_n_deletions(self):
        for n, t in ((5, 0), (0, 0), (3, 4), (0, 1), (-1, 1)):
            with pytest.raises(ValueError, match="1 <= t <= n"):
                _ball_table(n, t)

    def test_tables_at_the_length_cap_match_the_definitions(self):
        # the exhaustive checks above stop at n = 10: sample 64 words per
        # table at n = 14, where every column is longest
        n, rng = 14, random.Random(14)
        for t in (1, 2):
            # uncached at t = 2, so that the test process does not keep it
            balls = _ball_table(n, 1) if t == 1 else _ball_table.__wrapped__(n, 2)
            for b in rng.sample(range(1 << n), 64):
                assert set(balls[b]) == _ball_packed(b, n, t), (t, b)


class TestOrbitLeaders:
    def test_the_walk_visits_the_least_word_of_every_orbit(self):
        for n in range(1, 15):
            seen: set[int] = set()
            least = []
            for v in range(1 << n):
                if v not in seen:
                    seen.update(_images(v, n))
                    least.append(v)
            assert list(_orbit_leaders(n)) == least, n


class TestSubsequence:
    def test_fixtures(self):
        assert is_subsequence(Word("010"), Word("0100"))
        assert not is_subsequence(Word("11"), Word("00"))
        assert is_subsequence(Word(""), Word("0100"))
        assert is_subsequence(Word(""), Word(""))
        assert not is_subsequence(Word("0100"), Word("010"))

    @given(words_st(max_len=7), words_st(max_len=7))
    def test_matches_itertools_oracle(self, x, y):
        expected = len(x) <= len(y) and str(x) in ref_ball(str(y), len(y) - len(x))
        assert is_subsequence(x, y) == expected


class TestDistances:
    def test_lcs_fixtures(self):
        w = Word("110100")
        assert lcs_length(w, w) == len(w)
        # pinned by the DP oracle; consistent with the indel distance 4 below
        assert lcs_length(Word("0100"), Word("110101")) == 3
        assert ref_lcs("0100", "110101") == 3
        assert lcs_length(Word("00000"), Word("11111")) == 0

    def test_indel_fixtures(self):
        assert levenshtein_indel(Word("0100"), Word("110101")) == 4
        assert levenshtein_indel(Word("0110"), Word("0110")) == 0
        assert levenshtein_indel(Word("00011"), Word("10101")) == 4

    def test_deletion_distance_fixtures(self):
        assert deletion_distance(Word("00000"), Word("11111")) == 5
        assert deletion_distance(Word("00011"), Word("10101")) == 2
        assert deletion_distance(Word("0110"), Word("0110")) == 0

    def test_deletion_distance_rejects_unequal_lengths(self):
        with pytest.raises(ValueError):
            deletion_distance(Word("010"), Word("0100"))

    def test_hamming_fixtures(self):
        assert hamming_distance(Word("0001"), Word("0101")) == 1
        assert hamming_distance(Word("00011"), Word("10101")) == 3
        with pytest.raises(ValueError):
            hamming_distance(Word("01"), Word("011"))

    @given(words_st())
    def test_hamming_of_complement_is_length(self, w):
        assert hamming_distance(w, complement(w)) == len(w)

    @given(words_st(), words_st())
    def test_lcs_matches_dp_oracle(self, x, y):
        assert lcs_length(x, y) == ref_lcs(str(x), str(y))

    def test_indel_matches_bfs_oracle_exhaustive(self):
        words = [s for n in range(0, 7) for s in all_strings(n)]
        for x in words:
            for y in words:
                assert levenshtein_indel(Word(x), Word(y)) == ref_indel_bfs(x, y)

    @given(words_st(min_len=1, max_len=8), words_st(min_len=1, max_len=8))
    def test_indel_symmetry_and_identity(self, x, y):
        assert levenshtein_indel(x, y) == levenshtein_indel(y, x)
        assert levenshtein_indel(x, x) == 0

    def test_ball_intersection_iff_distance_at_most_t(self):
        # string oracle on both sides at small n
        for n in range(1, 6):
            strings = all_strings(n)
            for t in range(1, min(n, 3) + 1):
                for us in strings:
                    bu = ref_ball(us, t)
                    for vs in strings:
                        meets = bool(bu & ref_ball(vs, t))
                        d = deletion_distance(Word(us), Word(vs))
                        assert meets == (d <= t), (us, vs, t)
        # internal consistency of ball and distance up to n = 8
        for n in (7, 8):
            words = list(Word.all_of_length(n))
            for t in (1, 2, 3):
                balls = [set(deletion_ball(w, t).strings()) for w in words]
                for i, u in enumerate(words):
                    for j in range(i + 1, len(words)):
                        meets = bool(balls[i] & balls[j])
                        assert meets == (deletion_distance(u, words[j]) <= t)


class TestRunLengthEncode:
    def test_fixtures(self):
        assert run_length_encode(Word("00011")) == [(0, 3), (1, 2)]
        assert run_length_encode(Word("10101")) == [
            (1, 1), (0, 1), (1, 1), (0, 1), (1, 1),
        ]
        assert run_length_encode(Word("1111")) == [(1, 4)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            run_length_encode(Word(""))

    @given(words_st(min_len=1))
    def test_reconstruction_and_shape(self, w):
        runs = run_length_encode(w)
        assert "".join(str(sym) * count for sym, count in runs) == str(w)
        assert all(count >= 1 for _, count in runs)
        assert all(a != b for (a, _), (b, _) in zip(runs, runs[1:]))


class TestWordSet:
    def test_uniform_length_enforced(self):
        with pytest.raises(ValueError):
            WordSet(3, [Word("010"), Word("01")])

    def test_deduplication_and_order(self):
        s = WordSet(2, [Word("10"), Word("01"), Word("10")])
        assert len(s) == 2
        assert s.strings() == ["01", "10"]

    def test_contains_respects_length(self):
        s = WordSet(3, [Word("010")])
        assert Word("010") in s
        assert Word("01") not in s
        assert "010" not in s and None not in s

    def test_subset_operator(self):
        small = WordSet(2, [Word("01")])
        big = WordSet(2, [Word("01"), Word("10")])
        assert small <= big
        assert not big <= small
        # against a non-WordSet Python raises TypeError, as for Word
        for other in ("x", None, Word("01")):
            with pytest.raises(TypeError):
                small <= other
        with pytest.raises(TypeError):
            deletion_ball(Word("0101"), 1) <= "x"
