import random
from collections import Counter

import pytest

from delcodes import (
    MAX_LEN,
    Code,
    Word,
    WordSet,
    are_equivalent,
    code_deletion_distance,
    complement,
    deletion_distance,
    dominant_codewords,
    find_ball_collision,
    is_basic,
    is_perfect,
    is_t_deletion_correcting,
    replace_dominant,
    reverse,
    reverse_complement,
    vt_code,
)
from delcodes import codes

EXAMPLE_CODE = Code(["00000", "11111", "00011", "11000", "10101", "01110"])

# sizes of the residue-zero checksum codes, pinned by direct string enumeration
VT_SIZES = {1: 1, 2: 2, 3: 2, 4: 4, 5: 6, 6: 10, 7: 16, 8: 30, 9: 52, 10: 94}


def greedy_random_code(n: int, t: int, rng: random.Random) -> Code:
    order = list(range(1 << n))
    rng.shuffle(order)
    chosen: list[Word] = []
    for bits in order:
        w = Word.from_bits(bits, n)
        if all(deletion_distance(w, c) > t for c in chosen):
            chosen.append(w)
    keep = rng.randint(1, len(chosen))
    return Code(chosen[:keep])


class TestCodeType:
    def test_dedup_and_order(self):
        c = Code(["11", "00", "11"])
        assert [str(w) for w in c] == ["00", "11"]
        assert len(c) == 2

    def test_nonempty_required(self):
        with pytest.raises(ValueError):
            Code([])

    def test_uniform_length_required(self):
        with pytest.raises(ValueError):
            Code(["00", "000"])

    def test_membership_and_equality(self):
        c = Code(["010", "101"])
        assert Word("010") in c and Word("011") not in c
        assert c == Code([Word("101"), Word("010")])
        assert "010" not in c and None not in c
        # a code is a word set: equal sets compare and hash equal
        s = WordSet(3, [Word("010"), Word("101")])
        assert isinstance(c, WordSet)
        assert c == s and s == c and hash(c) == hash(s)
        assert c != WordSet(3, [Word("010")])


class TestDeletionCorrecting:
    def test_example_code_corrects_one_deletion(self):
        assert is_t_deletion_correcting(EXAMPLE_CODE, 1)

    def test_overlapping_balls_detected_with_witness(self):
        code = Code(["00000", "00001"])
        assert not is_t_deletion_correcting(code, 1)
        collision = find_ball_collision(code, 1)
        assert collision == (Word("00000"), Word("00001"))

    def test_singleton_always_corrects(self):
        for t in (1, 2, 3):
            assert is_t_deletion_correcting(Code(["10110"]), t)

    def test_t_range_enforced(self):
        with pytest.raises(ValueError):
            is_t_deletion_correcting(EXAMPLE_CODE, 0)
        with pytest.raises(ValueError):
            is_t_deletion_correcting(EXAMPLE_CODE, 5)

    def test_equivalent_to_distance_threshold(self):
        rng = random.Random(11)
        for n in range(2, 9):
            for t in (1, 2):
                if t >= n:
                    continue
                for _ in range(8):
                    code = greedy_random_code(n, t, rng)
                    extra = Code(
                        list(code) + [Word.from_bits(rng.randrange(1 << n), n)]
                    )
                    for c in (code, extra):
                        if len(c) < 2:
                            continue
                        assert is_t_deletion_correcting(c, t) == (
                            code_deletion_distance(c) > t
                        )


class TestCodeDeletionDistance:
    def test_fixtures(self):
        assert code_deletion_distance(Code(["00000", "11111"])) == 5
        assert code_deletion_distance(EXAMPLE_CODE) == 2
        assert code_deletion_distance(Code(["0", "1"])) == 1

    def test_needs_two_words(self):
        with pytest.raises(ValueError):
            code_deletion_distance(Code(["0101"]))


class TestPerfect:
    def test_two_word_partition(self):
        assert is_perfect(Code(["00", "11"]), 1)

    def test_example_code_is_not_perfect(self):
        # ball sizes 1+1+2+2+5+3 = 14 < 16
        assert not is_perfect(EXAMPLE_CODE, 1)

    def test_constants_only_not_perfect(self):
        assert not is_perfect(Code(["00000", "11111"]), 1)

    def test_precondition_reported_distinctly(self):
        with pytest.raises(ValueError, match="not 1-deletion-correcting"):
            is_perfect(Code(["00000", "00001"]), 1)

    @pytest.mark.parametrize(
        "text,t", [("00 11", 1), ("00000 11111 00011", 1), ("00000000 00000111", 2)]
    )
    def test_one_ball_per_codeword(self, monkeypatch, text, t):
        built = Counter()
        ball = codes._ball_packed

        def counted(bits, *args):
            built[bits] += 1
            return ball(bits, *args)

        monkeypatch.setattr(codes, "_ball_packed", counted)
        code = Code(text.split())
        is_perfect(code, t)
        assert built == Counter(code.packed())


class TestBasic:
    def test_constants_are_basic(self):
        for n in range(2, 9):
            assert is_basic(Code([Word.zeros(n), Word.ones(n)]), 1)

    def test_weight_one_word_is_dominant(self):
        code = Code(["1000", "0110"])
        assert not is_basic(code, 1)
        assert dominant_codewords(code, 1) == [Word("1000")]

    def test_example_code_is_basic(self):
        assert is_basic(EXAMPLE_CODE, 1)
        assert dominant_codewords(EXAMPLE_CODE, 1) == []


class TestReplaceDominant:
    def test_already_basic_unchanged(self):
        assert replace_dominant(EXAMPLE_CODE, 1) == EXAMPLE_CODE

    def test_weight_one_replaced_by_all_zero(self):
        out = replace_dominant(Code(["10000", "01110"]), 1)
        assert out == Code(["00000", "01110"])
        assert is_basic(out, 1)

    def test_upward_only_replacement_stalls(self):
        # the only subordinate of 01111 is 11111, which is numerically larger,
        # so the packed-sum guard stops the iteration there
        out = replace_dominant(Code(["10000", "01111"]), 1)
        assert out == Code(["00000", "01111"])
        assert not is_basic(out, 1)

    def test_mutual_dominance_cannot_cycle(self):
        assert replace_dominant(Code(["01"]), 1) == Code(["00"])
        assert replace_dominant(Code(["10"]), 1) == Code(["00"])

    def test_requires_correcting_code(self):
        with pytest.raises(ValueError):
            replace_dominant(Code(["00000", "00001"]), 1)

    def test_preserves_size_and_correction(self):
        rng = random.Random(23)
        for n in range(3, 9):
            for _ in range(10):
                code = greedy_random_code(n, 1, rng)
                out = replace_dominant(code, 1)
                assert len(out) == len(code)
                assert is_t_deletion_correcting(out, 1)


class TestEquivalence:
    def test_reflexive(self):
        assert are_equivalent(EXAMPLE_CODE, EXAMPLE_CODE)

    def test_example_code_transform_images(self):
        # the example code is closed under reversal (00011 <-> 11000, the
        # other four words are palindromes), and any image is equivalent
        assert Code([reverse(w) for w in EXAMPLE_CODE]) == EXAMPLE_CODE
        image = Code([complement(w) for w in EXAMPLE_CODE])
        assert image != EXAMPLE_CODE
        assert are_equivalent(EXAMPLE_CODE, image)

    def test_single_word_equivalence(self):
        # 001 maps to 011 under reversal-plus-complement
        assert are_equivalent(Code(["001"]), Code(["011"]))
        # but nothing maps 001 to 010
        assert not are_equivalent(Code(["001"]), Code(["010"]))

    def test_reversal_image_detected(self):
        c = Code(["0010", "1101", "0111"])
        assert are_equivalent(c, Code([reverse(w) for w in c]))
        assert are_equivalent(c, Code([reverse_complement(w) for w in c]))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            are_equivalent(Code(["01"]), Code(["011"]))

    def test_transforms_preserve_correction(self):
        rng = random.Random(5)
        images = (complement, reverse, reverse_complement)
        for n in range(2, 9):
            codes = [greedy_random_code(n, 1, rng) for _ in range(6)]
            codes.append(vt_code(n, 0))
            if n == 5:
                codes.append(EXAMPLE_CODE)
            for code in codes:
                ok = is_t_deletion_correcting(code, 1)
                for f in images:
                    assert is_t_deletion_correcting(Code([f(w) for w in code]), 1) == ok


class TestVtCodes:
    def test_pinned_sizes(self):
        for n, size in VT_SIZES.items():
            assert len(vt_code(n, 0)) == size

    def test_residue_zero_members_at_n5(self):
        assert [str(w) for w in vt_code(5, 0)] == [
            "00000", "00111", "01010", "10001", "11011", "11100",
        ]

    def test_all_residues_correct_one_deletion(self):
        for n in range(2, 9):
            for a in range(n + 1):
                code = vt_code(n, a)
                if len(code) >= 2:
                    assert is_t_deletion_correcting(code, 1), (n, a)

    def test_residues_partition_the_space(self):
        for n in range(1, 9):
            seen: set[int] = set()
            total = 0
            for a in range(n + 1):
                code = vt_code(n, a)
                total += len(code)
                seen.update(w.bits for w in code)
            assert total == 1 << n
            assert len(seen) == 1 << n

    def test_zero_word_has_zero_residue(self):
        for n in range(1, 11):
            assert Word.zeros(n) in vt_code(n, 0)

    def test_residue_range_enforced(self):
        with pytest.raises(ValueError):
            vt_code(5, 6)
        with pytest.raises(ValueError):
            vt_code(5, -1)
        with pytest.raises(ValueError):
            vt_code(0, 0)

    @pytest.mark.parametrize("n", [MAX_LEN + 1, 70])
    def test_length_past_word_limit_rejected(self, n):
        # checked before the 2**n checksum loop starts
        with pytest.raises(ValueError):
            vt_code(n, 0)

    @pytest.mark.parametrize("n", [codes.VT_CAP + 1, MAX_LEN])
    def test_length_past_cap_rejected(self, n):
        # a word of this length is valid, but listing all 2**n words is not
        # done in time
        with pytest.raises(ValueError, match="out of range"):
            vt_code(n, 0)


class TestCodeFileFormat:
    def test_parse_with_comments_and_blanks(self):
        text = "# six words\n\n00000\n11111\n00011\n11000\n\n10101\n01110\n"
        assert Code.from_text(text) == EXAMPLE_CODE

    def test_whitespace_tolerated(self):
        assert Code.from_text("  01 \n 10\n") == Code(["01", "10"])

    def test_write_then_read_is_identity(self, tmp_path):
        path = tmp_path / "example.code"
        EXAMPLE_CODE.to_file(path)
        assert Code.from_file(path) == EXAMPLE_CODE
        vt = vt_code(8, 0)
        assert Code.from_text(vt.to_text()) == vt

    def test_rewrite_is_byte_identical(self, tmp_path):
        path = tmp_path / "a.code"
        EXAMPLE_CODE.to_file(path)
        text = path.read_text()
        again = tmp_path / "b.code"
        Code.from_text(text).to_file(again)
        assert again.read_bytes() == path.read_bytes()

    def test_errors_carry_line_numbers(self):
        with pytest.raises(ValueError, match="line 3"):
            Code.from_text("# fine\n010\n01x\n")

    def test_mixed_lengths_rejected(self):
        msg = "line 4: word length 4 differs from the first word's 3"
        with pytest.raises(ValueError, match=msg):
            Code.from_text("# code\n010\n\n0100\n011\n")

    def test_empty_file_rejected(self):
        with pytest.raises(ValueError):
            Code.from_text("# nothing here\n\n")
        with pytest.raises(ValueError):
            Code.from_text("# only comments\n")
