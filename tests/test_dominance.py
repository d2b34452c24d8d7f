import hashlib
import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ref_ball, ref_dominant_pairs, ref_lcs, word_pairs_st

from delcodes import (
    DominancePair,
    Word,
    closed_form_generation,
    deletion_ball,
    dominators_of,
    enumerate_dominant_pairs,
    equivalence_closure,
    generate_closed_form,
    is_dominant,
    subordinates_of,
    verify_characterization,
    weight,
)
from delcodes import dominance
from delcodes.dominance import (
    BOUNDARY_SWAP,
    BRUTE_FORCE_CAP,
    TWO_DELETION_ROWS,
    _dominant_pairs_packed,
)

# counts pinned by the string-based quadratic oracle
BRUTE_COUNTS_T2 = {3: 42, 4: 88, 5: 134, 6: 182, 7: 232, 8: 284}
BRUTE_COUNTS_T3 = {4: 210, 5: 550, 6: 984}
# sha256 of repr(_dominant_pairs_packed(n, t)): the pairs and their order
PAIR_TABLE_SHA256 = {
    (9, 1): "fd0a65738874b598ed125474826212b56c20e7ccd73a26ba8b741b721e57f351",
    (10, 1): "7ff0e622b1ec6cfb41c08f1bdc5d4a11915d4e814850a4978f45f23aeaaab9e4",
    (11, 1): "1168644e7a005a7f1914ee8d2f17d33b950a4fd555dd90c42d2dbde4fb241258",
    (12, 1): "e157df96634129e5da5a6f5e3d9715aa77648bb2bc08171435944f879cd1c7a7",
    (10, 2): "28d0b311c9369fb25f03b68ecb4ed0eeede9732aad864d6fe5baedac7291c54b",
    (11, 2): "2ad061102adfc54f6fb1bcef56a2bf170a22097c6ef74ea6baa58ce13292a418",
    (12, 2): "78572a0da5990b9331637db80342b1bf3505ce6f76dc1dc3c0e501cfea179fb3",
    (13, 2): "61b55b213852f9fdc19685f487ab6ea6aa0c16b3435fb91639f6de5ac1413b53",
    (9, 3): "cb773b775b69b5a368138164c2202349a1867143558dcd9602cde4200067923c",
    (10, 3): "1b74d9fc205ec07846bdc33ec81914a75fe4c050cccb7051382c8a8c42a73730",
    (11, 3): "28dce6cf053ec34489f1e7adafa215d81a6ebbf47c8482d1c199db4e80ea7667",
    (13, 1): "4764dc5c3916fdce67cfe9800f3f2d5bc056d8ac0cf0824d03722c06f05447fc",
    (14, 1): "cea7d545748d3193556e31e37b7c5954f8e04d5ade7439c96e9fbab85038ad70",
    (14, 2): "1e5426ebdd27bf8b23318a58b2fabd7d7923ab47b786d3ca473cb48dd24efc3f",
    (12, 3): "72d9412a52e4f30418a6e6fcc267226c36e3ba839200fcfb2b2667860dd52e1f",
    (13, 3): "df9f7423d74ef74c96134daf3c09ff7915901b76495bd9824b5d3c390fb28e69",
    (14, 3): "30727a3eeb82e6411ca7e2767ec2f3a3a52c919f33cf655db55dd35db480be48",
}


@st.composite
def far_pairs_st(draw):
    """(u, v, t): two words of one length, at most 16, whose deletion
    distance n - LCS exceeds t, for t = 1..3."""
    t = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=2 * t + 2, max_value=16))
    words = st.integers(min_value=0, max_value=(1 << n) - 1).map(
        lambda b: f"{b:0{n}b}"
    )
    u = draw(words)
    v = draw(words.filter(lambda s: n - ref_lcs(u, s) > t))
    return Word(u), Word(v), t


def pair_strings(pairs):
    return {(str(p.u), str(p.v)) for p in pairs}


class TestIsDominant:
    def test_fixtures(self):
        assert is_dominant(Word("1011"), Word("0111"), 1)
        assert not is_dominant(Word("0111"), Word("1011"), 1)
        assert is_dominant(Word("10101"), Word("01110"), 2)
        w = Word("0110")
        assert not is_dominant(w, w, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            is_dominant(Word("01"), Word("011"), 1)
        with pytest.raises(ValueError):
            is_dominant(Word("01"), Word("10"), 0)
        with pytest.raises(ValueError):
            is_dominant(Word("01"), Word("10"), 3)

    @given(word_pairs_st(max_len=16), st.integers(min_value=1, max_value=3))
    def test_matches_definition(self, pair, t):
        u, v = pair
        if t > len(u):
            return
        expected = u != v and ref_ball(str(v), t) <= ref_ball(str(u), t)
        assert is_dominant(u, v, t) == expected

    @given(far_pairs_st())
    def test_pairs_beyond_t_deletions_are_never_dominant(self, far):
        # words more than t deletions apart share no subsequence of length
        # n - t, so their balls are disjoint and neither holds the other
        u, v, t = far
        assert not ref_ball(str(u), t) & ref_ball(str(v), t)
        assert not is_dominant(u, v, t) and not is_dominant(v, u, t)

    def test_checked_constructor(self):
        DominancePair.checked(Word("1011"), Word("0111"), 1)
        with pytest.raises(ValueError):
            DominancePair.checked(Word("0111"), Word("1011"), 1)


class TestEnumeration:
    def test_n2_t1_exact(self):
        pairs = enumerate_dominant_pairs(2, 1)
        assert pair_strings(pairs) == {
            ("01", "00"), ("10", "00"),
            ("01", "11"), ("10", "11"),
            ("10", "01"), ("01", "10"),
        }
        # canonical report order: ascending (packed v, packed u)
        assert [(str(p.u), str(p.v)) for p in pairs] == [
            ("01", "00"), ("10", "00"),
            ("10", "01"), ("01", "10"),
            ("01", "11"), ("10", "11"),
        ]

    def test_t1_counts(self):
        for n in range(2, 9):
            assert len(enumerate_dominant_pairs(n, 1)) == 4 * n - 2

    def test_t2_counts_pinned(self):
        for n, count in BRUTE_COUNTS_T2.items():
            assert len(enumerate_dominant_pairs(n, 2)) == count

    def test_t3_counts_pinned(self):
        for n, count in BRUTE_COUNTS_T3.items():
            assert len(enumerate_dominant_pairs(n, 3)) == count

    @settings(deadline=None)
    @given(
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=1, max_value=3),
    )
    def test_matches_string_oracle(self, n, t):
        if t > n:
            return
        assert pair_strings(enumerate_dominant_pairs(n, t)) == ref_dominant_pairs(n, t)

    @pytest.mark.parametrize("n", [7, 8])
    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_matches_string_oracle_beyond_the_sampled_lengths(self, n, t):
        assert pair_strings(enumerate_dominant_pairs(n, t)) == ref_dominant_pairs(n, t)

    # the prefix window shares no bits with the suffix window (n <= 2t), so
    # the scan keeps every prefix window of the ball and only its one-symbol
    # extensions filter; at n = t each window is the empty word
    @pytest.mark.parametrize("n, t", [(2, 2), (3, 2), (4, 2), (3, 3), (4, 3), (5, 3), (6, 3)])
    def test_matches_string_oracle_where_the_end_windows_do_not_overlap(self, n, t):
        assert pair_strings(enumerate_dominant_pairs(n, t)) == ref_dominant_pairs(n, t)

    # `check --basic` and the dominator queries scan at any t <= n, past the
    # t <= 3 that `enumerate` serves; at t = n every window is empty
    @pytest.mark.parametrize("n, t", [(n, t) for n in range(4, 9) for t in range(4, n + 1)])
    def test_scan_matches_string_oracle_above_three_deletions(self, n, t):
        pairs = {
            (str(Word.from_bits(u, n)), str(Word.from_bits(v, n)))
            for u, v in _dominant_pairs_packed(n, t)
        }
        assert pairs == ref_dominant_pairs(n, t)

    @pytest.mark.parametrize("n, t", sorted(PAIR_TABLE_SHA256))
    def test_pair_table_pinned(self, n, t):
        digest = hashlib.sha256(repr(_dominant_pairs_packed(n, t)).encode())
        assert digest.hexdigest() == PAIR_TABLE_SHA256[n, t]

    @pytest.mark.parametrize("n, t", [(6, 1), (7, 2), (8, 3)])
    def test_scan_never_builds_the_scanned_ball_table(self, monkeypatch, n, t):
        built = []
        table = dominance._ball_table

        def recorded(*args):
            built.append(args)
            return table(*args)

        monkeypatch.setattr(dominance, "_ball_table", recorded)
        pairs = _dominant_pairs_packed.__wrapped__(n, t)
        monkeypatch.undo()
        if t == 1:
            assert built == []
        else:
            assert built and (n, t) not in built
        assert pairs == _dominant_pairs_packed(n, t)

    @pytest.mark.parametrize("n, t, limit_mb", [(12, 2, 2), (12, 3, 8)])
    def test_scan_keeps_no_holder_table(self, n, t, limit_mb):
        # a scan through a table of every window's holders peaked at about
        # 6 and 13 MB here
        dominance._ball_table(n - 1, t - 1)
        tracemalloc.start()
        try:
            _dominant_pairs_packed.__wrapped__(n, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit_mb << 20, peak

    def test_scan_keeps_each_ball_as_a_tuple(self):
        # the scan keeps no candidate's ball: it peaks at about 0.63 MB here,
        # and a cache of every candidate's ball took it to 1.5 MB as tuples
        # and to 4.58 MB as frozensets
        dominance._ball_table(11, 2)
        tracemalloc.start()
        try:
            _dominant_pairs_packed.__wrapped__(12, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak

    def test_caps(self):
        with pytest.raises(ValueError):
            enumerate_dominant_pairs(1, 1)
        with pytest.raises(ValueError):
            enumerate_dominant_pairs(15, 1)
        with pytest.raises(ValueError):
            enumerate_dominant_pairs(6, 4)
        with pytest.raises(ValueError):
            enumerate_dominant_pairs(2, 3)


class TestDominatorsAndSubordinates:
    def test_dominators_of_all_zero(self):
        doms = dominators_of(Word.zeros(4), 1)
        assert doms.strings() == ["0001", "0010", "0100", "1000"]

    def test_dominators_of_all_one_two_deletions(self):
        doms = dominators_of(Word.ones(4), 2)
        assert len(doms) == 10
        assert all(weight(w) >= 2 for w in doms)
        assert Word.ones(4) not in doms

    def test_constant_words_dominate_nothing(self):
        for n in range(2, 9):
            for t in (1, 2):
                if t >= n:
                    continue
                assert len(subordinates_of(Word.zeros(n), t)) == 0
                assert len(subordinates_of(Word.ones(n), t)) == 0

    def test_consistency_with_enumeration(self):
        n, t = 5, 2
        pairs = pair_strings(enumerate_dominant_pairs(n, t))
        for w in Word.all_of_length(n):
            subs = {(str(w), s) for s in subordinates_of(w, t).strings()}
            doms = {(s, str(w)) for s in dominators_of(w, t).strings()}
            assert subs == {p for p in pairs if p[0] == str(w)}
            assert doms == {p for p in pairs if p[1] == str(w)}

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            dominators_of(Word.zeros(BRUTE_FORCE_CAP + 1), 1)

    def test_deletion_count_above_the_length_rejected(self):
        with pytest.raises(ValueError, match=r"^deletion count 5 out of range 1\.\.4$"):
            subordinates_of(Word("0101"), 5)


class TestClosedForm:
    def test_t1_matches_brute_force(self):
        for n in range(2, 9):
            assert pair_strings(generate_closed_form(n, 1)) == pair_strings(
                enumerate_dominant_pairs(n, 1)
            )

    def test_substitution_instance_included(self):
        gen = pair_strings(generate_closed_form(5, 2))
        assert ("01001", "00001") in gen

    def test_row18_boundary_instance_is_filtered_not_included(self):
        # the m=2 instantiation of the last interior row at n=5 fails the
        # containment check (001 escapes), so it must land in `filtered`
        assert not is_dominant(Word("01110"), Word("00111"), 2)
        gen = closed_form_generation(5, 2)
        assert ("01110", "00111") not in pair_strings(gen.pairs)
        assert any(
            str(f.u) == "01110" and str(f.v) == "00111" and f.source == "interior:18"
            for f in gen.filtered
        )

    def test_rejected_row_instances_at_t2(self):
        # both instances of interior:15 fail the definition at every n >= 5,
        # so that row gives pairs only at n = 4; interior:17 and interior:18
        # fail for exactly 1 <= m <= n - 3; every other instance passes
        assert any(
            "interior:15" in tags
            for tags in closed_form_generation(4, 2).provenance.values()
        )
        for n in range(5, 21):
            gen = closed_form_generation(n, 2)
            expected = {("interior:15", None, p) for p in (0, 1)} | {
                (f"interior:{row}", m, p)
                for row in (17, 18) for m in range(1, n - 2) for p in (0, 1)
            }
            rejected = [(f.source, f.m, f.p) for f in gen.filtered]
            assert len(rejected) == len(set(rejected)), n
            assert set(rejected) == expected, n
            for f in gen.filtered:
                if f.source == "interior:15":
                    p, q = str(f.p), str(1 - f.p)
                    assert str(f.u) == p * (n - 4) + q + p * 2 + q, n
                    assert str(f.v) == p * (n - 3) + q * 2 + p, n
            assert not any(
                "interior:15" in tags for tags in gen.provenance.values()
            ), n

    def test_every_generated_pair_is_dominant(self):
        for n, t in [(4, 1), (7, 1), (5, 2), (7, 2)]:
            for p in generate_closed_form(n, t):
                assert is_dominant(p.u, p.v, t)

    def test_unsupported_t(self):
        with pytest.raises(ValueError):
            generate_closed_form(6, 3)

    def test_never_reads_the_exhaustive_table(self, monkeypatch):
        def no_scan(n, t):
            raise AssertionError(f"exhaustive scan at n={n} t={t}")

        monkeypatch.setattr(dominance, "_dominant_pairs_packed", no_scan)
        for t, lengths in ((1, range(2, 9)), (2, range(3, 9))):
            for n in lengths:
                assert closed_form_generation(n, t).pairs

    def test_minimum_lengths(self):
        with pytest.raises(ValueError):
            generate_closed_form(1, 1)
        with pytest.raises(ValueError):
            generate_closed_form(2, 2)

    def test_provenance_tags_present(self):
        gen = closed_form_generation(6, 2)
        tags = {tag for tags in gen.provenance.values() for tag in tags}
        assert "all-zero" in tags and "all-one" in tags
        assert "monotone-lift" in tags
        assert any(tag.startswith("interior:") for tag in tags)
        assert any(tag.startswith("substitution:") for tag in tags)
        assert any(tag.startswith("opposite-ends:") for tag in tags)

    def test_monotone_lift_is_load_bearing(self):
        # lifted single-deletion pairs are not produced by the two-deletion rows
        gen = closed_form_generation(6, 2)
        only_lift = [
            p
            for p, tags in gen.provenance.items()
            if set(tags) == {"monotone-lift"}
        ]
        assert only_lift

    def test_pattern_rows_sum_to_word_length(self):
        # symbolic check: run exponents of every row add up to n exactly
        for row in (BOUNDARY_SWAP,) + TWO_DELETION_ROWS:
            for runs in (row.u_runs, row.v_runs):
                coeff_n = sum(e[0] for _, e in runs)
                coeff_m = sum(e[1] for _, e in runs)
                coeff_c = sum(e[2] for _, e in runs)
                assert (coeff_n, coeff_m, coeff_c) == (1, 0, 0), row.tag

    def test_instantiate_out_of_range_m(self):
        assert BOUNDARY_SWAP.instantiate(4, 0, 0) is None
        assert BOUNDARY_SWAP.instantiate(4, 4, 0) is None
        inst = BOUNDARY_SWAP.instantiate(4, 1, 0)
        assert inst is not None
        u, v = inst
        assert (str(u), str(v)) == ("1011", "0111")


class TestEquivalenceClosure:
    def test_two_letter_example(self):
        closed = equivalence_closure([DominancePair(Word("10"), Word("01"), 1)])
        assert pair_strings(closed) == {("10", "01"), ("01", "10")}

    def test_idempotent_and_bounded(self):
        pairs = set(enumerate_dominant_pairs(5, 2)[:7])
        once = equivalence_closure(pairs)
        assert equivalence_closure(once) == once
        assert len(once) <= 4 * len(pairs)

    @settings(deadline=None)
    @given(st.integers(min_value=2, max_value=8), st.integers(min_value=1, max_value=2))
    def test_closure_preserves_dominance(self, n, t):
        if t > n:
            return
        pairs = enumerate_dominant_pairs(n, t)
        for p in equivalence_closure(pairs[: min(len(pairs), 10)]):
            assert is_dominant(p.u, p.v, p.t)

    def test_dominance_invariant_under_transforms(self):
        # the relation, as a set of pairs, maps onto itself
        for n in range(2, 7):
            for t in (1, 2):
                if t >= n:
                    continue
                rel = pair_strings(enumerate_dominant_pairs(n, t))
                flip = str.maketrans("01", "10")
                assert {(u.translate(flip), v.translate(flip)) for u, v in rel} == rel
                assert {(u[::-1], v[::-1]) for u, v in rel} == rel
                assert {
                    (u[::-1].translate(flip), v[::-1].translate(flip))
                    for u, v in rel
                } == rel


class TestStructuralProperties:
    def test_monotonicity_small(self):
        for n in range(2, 11):
            for p in enumerate_dominant_pairs(n, 1):
                assert is_dominant(p.u, p.v, 2)

    def test_mutual_dominance_forces_equal_balls(self):
        witnessed = False
        for n in range(2, 7):
            for t in (1, 2):
                if t >= n:
                    continue
                rel = pair_strings(enumerate_dominant_pairs(n, t))
                for u, v in rel:
                    if (v, u) in rel:
                        witnessed = True
                        assert ref_ball(u, t) == ref_ball(v, t)
        assert witnessed  # (01, 10) at n=2 among others

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_dominance_keeps_the_weight_of_a_v_with_t_zeros_and_t_ones(self, t):
        # deleting t zeros of v leaves a word of weight w(v) that u's ball
        # must hold, so w(v) <= w(u); deleting t ones leaves weight
        # w(v) - t >= w(u) - t: the pair scan skips the v this rules out
        kept = moved = 0
        for n in range(t + 1, 9):
            for u, v in ref_dominant_pairs(n, t):
                if t <= v.count("1") <= n - t:
                    assert u.count("1") == v.count("1"), (u, v)
                    kept += 1
                else:
                    moved += u.count("1") != v.count("1")
        # both cases occur: the all-zero v is dominated by the weight-1 words
        assert kept and moved

    def test_single_deletion_dominance_keeps_to_four_runs(self):
        # a one-deletion ball holds one word per run and two distinct words
        # share at most two (Levenshtein 1966), so v has at most two runs
        # and u, an image of v with one symbol inserted, at most four: the
        # pair scan skips every other leader at t = 1
        def runs(s):
            return 1 + sum(a != b for a, b in zip(s, s[1:]))

        counts = [
            (runs(u), runs(v)) for n in range(2, 9) for u, v in ref_dominant_pairs(n, 1)
        ]
        # both bounds hold, and both are met
        assert [max(c) for c in zip(*counts)] == [4, 2]

    def test_unique_single_deletion_forces_constant(self):
        # if every single deletion of x gives the same y, x (hence y) is constant
        for n in range(2, 11):
            for x in Word.all_of_length(n):
                if len(deletion_ball(x, 1)) == 1:
                    assert x in (Word.zeros(n), Word.ones(n))

    def test_unique_double_deletion_forces_constant(self):
        for n in range(3, 11):
            for x in Word.all_of_length(n):
                if len(deletion_ball(x, 2)) == 1:
                    assert x in (Word.zeros(n), Word.ones(n))


class TestVerification:
    def test_t1_confirmed_small(self):
        for n in range(2, 9):
            report = verify_characterization(n, 1)
            assert report.confirmed
            assert report.brute_count == report.generated_count == 4 * n - 2
            assert not report.filtered

    def test_t2_confirmed_small(self):
        for n in range(3, 8):
            report = verify_characterization(n, 2)
            assert report.confirmed
            assert report.brute_count == BRUTE_COUNTS_T2[n]

    def test_small_n_exhaustive_base_cases(self):
        # the shortest double-deletion lengths come from the rows alone too
        for n, filtered in ((3, 0), (4, 4)):
            report = verify_characterization(n, 2)
            assert report.confirmed
            assert len(report.filtered) == filtered
            tags = closed_form_generation(n, 2).provenance.values()
            assert not any("small-n" in t for t in tags)

    def test_report_is_honest_about_diffs(self):
        # the diff fields come from set differences against the enumeration,
        # so a confirmed report pins both counts to the same value
        report = verify_characterization(6, 2)
        assert report.brute_count == len(set(enumerate_dominant_pairs(6, 2)))
        assert report.generated_count == len(set(generate_closed_form(6, 2)))

    def test_unsupported_t(self):
        with pytest.raises(ValueError):
            verify_characterization(6, 3)

    def test_json_document_shape(self):
        report = verify_characterization(5, 2)
        doc = report.to_json_dict()
        encoded = json.dumps(doc, sort_keys=True)
        again = json.loads(encoded)
        assert again["n"] == 5 and again["t"] == 2
        assert again["brute_count"] == again["generated_count"] == 134
        assert again["missing"] == [] and again["spurious"] == []
        assert all(
            set(f) == {"source", "m", "p", "u", "v"} for f in again["filtered"]
        )

    def test_summary_text(self):
        report = verify_characterization(4, 1)
        text = report.summary()
        assert "n=4 t=1" in text and "missing 0" in text and "spurious 0" in text

    def test_confirmed_at_the_enumeration_cap(self):
        # counts re-derived by the independent string-oracle scan
        report = verify_characterization(12, 2)
        assert report.confirmed and report.brute_count == 512
        report = verify_characterization(14, 1)
        assert report.confirmed and report.brute_count == 54
