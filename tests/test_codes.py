"""Code construction, symmetry, canonicalization, and serialization."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nisim import (
    BinaryCode,
    CubeSymmetry,
    apply_symmetry,
    canonical_form,
    canonical_pair,
    complement,
    distance_distribution,
    format_code,
    hamming_ball,
    make_code,
    parse_code,
    star,
    subcube,
    symmetry_group,
)
from nisim.errors import (
    DimensionRangeError,
    EmptyCodeError,
    FormatError,
    ParameterRangeError,
    WordRangeError,
)

from conftest import brute_orbit, random_code


def small_codes(max_n=5):
    """Hypothesis strategy for nonempty codes of dimension up to max_n."""
    return st.integers(1, max_n).flatmap(
        lambda n: st.sets(st.integers(0, (1 << n) - 1), min_size=1).map(
            lambda words: make_code(n, words)
        )
    )


class TestConstruction:
    def test_make_code_sorts_and_dedupes(self):
        code = make_code(3, [5, 1, 5, 0])
        assert code.words == (0, 1, 5)
        assert code.n == 3
        assert code.size == 3
        assert code.density == 3 / 8

    def test_contains_and_word_array(self):
        code = make_code(3, [1, 6])
        assert 1 in code and 6 in code and 3 not in code
        arr = code.word_array()
        assert arr.tolist() == [1, 6]

    def test_dimension_guards(self):
        with pytest.raises(DimensionRangeError):
            make_code(0, [0])
        with pytest.raises(DimensionRangeError):
            make_code(65, [0])

    def test_word_guards(self):
        with pytest.raises(WordRangeError):
            make_code(2, [4])
        with pytest.raises(WordRangeError):
            make_code(2, [-1])
        with pytest.raises(EmptyCodeError):
            make_code(2, [])

    def test_direct_construction_requires_sorted_words(self):
        with pytest.raises(WordRangeError):
            BinaryCode(2, (2, 1))
        with pytest.raises(WordRangeError):
            BinaryCode(2, (1, 1))

    @pytest.mark.parametrize(
        "n, words, message",
        [
            (3, (1, 2.0), "word 2.0 out of range for dimension 3"),
            (3, (np.int64(1),), "word 1 out of range for dimension 3"),
            (3, (1, 1), "words must be strictly increasing"),
            (3, (2, 1), "words must be strictly increasing"),
            (3, (2, 1, 9), "words must be strictly increasing"),
            (3, (9, 1), "word 9 out of range for dimension 3"),
            (1, (-1, 0), "word -1 out of range for dimension 1"),
            (1, (0, 2), "word 2 out of range for dimension 1"),
            (64, (-1,), "word -1 out of range for dimension 64"),
            (64, (0, 1 << 64), f"word {1 << 64} out of range for dimension 64"),
        ],
    )
    def test_word_guard_names_the_first_fault(self, n, words, message):
        with pytest.raises(WordRangeError) as info:
            BinaryCode(n, words)
        assert str(info.value) == message

    @pytest.mark.parametrize("n", [1, 64])
    def test_both_ends_of_the_word_range_are_accepted(self, n):
        assert BinaryCode(n, (0, (1 << n) - 1)).size == 2

    def test_contains_at_64_bits(self):
        top = (1 << 64) - 1
        code = make_code(64, [top, 1 << 63, 0])
        assert code.words == (0, 1 << 63, top)
        for word in code.words:
            assert word in code
        for word in (1, (1 << 63) - 1, (1 << 63) + 1, top - 1, -1, 1 << 64):
            assert word not in code

    def test_make_code_accepts_numpy_integers(self):
        code = make_code(4, np.array([9, 3, 9, 0], dtype=np.int64))
        assert code.words == (0, 3, 9)
        assert all(type(w) is int for w in code.words)
        assert make_code(4, [np.uint8(5), np.int32(2)]).words == (2, 5)

    @pytest.mark.parametrize(
        "words",
        [
            [9, 3, 9, 0],
            (9, 3, 9, 0),
            (w for w in (9, 3, 9, 0)),
            {9, 3, 0},
            np.array([9, 3, 9, 0], dtype=np.int64),
            np.array([9, 3, 9, 0], dtype=np.uint8),
            np.array([9.5, 3.0, 0.2]),
            [np.uint64(9), np.int16(3), np.int64(0)],
            [9.9, 3, 0.7],
            ["9", "3", "0"],
        ],
        ids=["list", "tuple", "generator", "set", "int64", "uint8", "float-array",
             "numpy-scalars", "floats", "strings"],
    )
    def test_make_code_coerces_words_with_int(self, words):
        code = make_code(4, words)
        assert code == BinaryCode(4, (0, 3, 9))
        assert all(type(w) is int for w in code.words)

    @pytest.mark.parametrize("n", [20, 63, 64])
    def test_word_lists_match_the_word_by_word_route(self, n):
        """Lists and tuples of Python ints, duplicates and words from 2^63 up
        included, give the code BinaryCode builds from the sorted set."""
        rng = np.random.default_rng(n)
        words = [int(w) >> (64 - n) for w in rng.integers(0, 1 << 64, 4096, dtype=np.uint64)]
        words += words[:100]
        reference = BinaryCode(n, tuple(sorted(set(words))))
        for container in (list, tuple):
            code = make_code(n, container(words))
            assert code == reference and code.words == reference.words
            assert code.word_array().dtype == np.uint64
            assert not code.word_array().flags.writeable

    def test_make_code_truncates_float_words(self):
        assert make_code(3, [2.7]).words == (2,)
        assert make_code(3, [-0.5, 1]).words == (0, 1)
        with pytest.raises(WordRangeError) as info:
            make_code(3, [-1.5, 2])
        assert str(info.value) == "word -1 out of range for dimension 3"

    @pytest.mark.parametrize(
        "words, message",
        [
            ([5, -3, 7], "word -3 out of range for dimension 2"),
            (np.array([5, 1, 4]), "word 4 out of range for dimension 2"),
            ([1 << 64], f"word {1 << 64} out of range for dimension 2"),
        ],
    )
    def test_make_code_names_the_smallest_bad_word(self, words, message):
        with pytest.raises(WordRangeError) as info:
            make_code(2, words)
        assert str(info.value) == message

    @pytest.mark.parametrize("container", [list, tuple])
    @pytest.mark.parametrize(
        "n, words, outcome",
        [
            (4, [1.5], (1,)),
            (4, [True], (1,)),
            (4, ["3"], (3,)),
            (4, [b"3"], (3,)),
            (4, [np.int32(3)], (3,)),
            (4, [3, 1.5, "2", b"0", True], (0, 1, 2, 3)),
            (4, [-1], (WordRangeError, "word -1 out of range for dimension 4")),
            (4, [1 << 63], (WordRangeError, f"word {1 << 63} out of range for dimension 4")),
            (64, [1 << 63, 0], (0, 1 << 63)),
            (4, [None], (TypeError, "not 'NoneType'")),
            (4, ["a"], (ValueError, "invalid literal for int() with base 10: 'a'")),
            (4, [[1, 2]], (TypeError, "not 'list'")),
            (4, [], (EmptyCodeError, "a code needs at least one word")),
        ],
        ids=["float", "bool", "str", "bytes", "int32", "mixed", "negative", "past-int64",
             "past-int64-n64", "none", "non-numeric-str", "nested", "empty"],
    )
    def test_make_code_coercion_table(self, container, n, words, outcome):
        """Each word is coerced as int() coerces it, whether make_code takes
        its array path or falls back to the word-by-word check."""
        if isinstance(outcome[0], type):
            with pytest.raises(outcome[0]) as info:
                make_code(n, container(words))
            assert str(info.value).endswith(outcome[1])
        else:
            code = make_code(n, container(words))
            assert code.words == outcome
            assert code == BinaryCode(n, tuple(sorted(set(map(int, words)))))

    def test_word_array_at_64_bits(self):
        words = [0, 1, 1 << 63, (1 << 64) - 1]
        code = make_code(64, words[::-1])
        assert code.word_array().dtype == np.uint64
        assert code.word_array().tolist() == words
        assert code.words == tuple(words)
        assert make_code(64, code.word_array()) == code
        top = make_code(64, [1 << 63, (1 << 63) + 1])
        assert (1 << 63) in top and (1 << 63) + 1 in top and (1 << 63) + 2 not in top


class TestRepresentation:
    def test_equal_codes_hash_alike(self):
        direct, built = BinaryCode(3, (0, 1, 5)), make_code(3, [5, 1, 0])
        assert direct == built and hash(direct) == hash(built)
        table = {direct: "first"}
        table[built] = "second"
        assert table == {make_code(3, (1, 0, 5)): "second"}

    def test_dimension_is_part_of_the_value(self):
        assert make_code(3, [1, 2]) != make_code(4, [1, 2])
        assert make_code(3, [1, 2]) != make_code(3, [1, 3])
        assert make_code(3, [1, 2]) != (1, 2)

    def test_repr_lists_the_words(self):
        assert repr(make_code(3, [5, 1])) == "BinaryCode(n=3, words=(1, 5))"

    def test_word_array_is_the_stored_read_only_array(self):
        code = make_code(4, [3, 1])
        arr = code.word_array()
        assert arr is code.word_array()
        assert np.shares_memory(arr, code.word_array())
        with pytest.raises(ValueError):
            arr[0] = 7
        assert code.words == (1, 3)

    def test_indicator_marks_the_words(self):
        code = make_code(3, [6, 1])
        assert code.indicator().tolist() == [0, 1, 0, 0, 0, 0, 1, 0]
        assert code.indicator().dtype == np.int8

    def test_codes_are_immutable(self):
        code = make_code(2, [1])
        with pytest.raises(AttributeError):
            code.n = 3

    @pytest.mark.parametrize(
        "build",
        [
            lambda: make_code(5, [30, 2, 2, 17]),
            lambda: BinaryCode(5, (2, 17, 30)),
            lambda: subcube(5, 2),
            lambda: hamming_ball(5, 9, 2),
            lambda: complement(make_code(5, [2, 17, 30])),
            lambda: star(make_code(5, [2, 17, 30])),
            lambda: apply_symmetry(CubeSymmetry((2, 0, 4, 1, 3), 11), make_code(5, [2, 17, 30])),
            lambda: canonical_form(make_code(5, [2, 17, 30])),
            lambda: canonical_pair(make_code(5, [2, 17]), make_code(5, [30]))[1],
            lambda: subcube(64, 60),
        ],
        ids=["make_code", "BinaryCode", "subcube", "hamming_ball", "complement", "star",
             "apply_symmetry", "canonical_form", "canonical_pair", "subcube-64"],
    )
    def test_every_builder_stores_a_checked_array(self, build):
        code = build()
        arr = code.word_array()
        assert arr.dtype == np.uint64 and arr.ndim == 1 and not arr.flags.writeable
        assert all(type(w) is int for w in code.words)
        assert arr.tolist() == list(code.words)
        # The public constructor re-checks the words the builder stored.
        assert BinaryCode(code.n, code.words) == code


class TestDerivedCodes:
    def test_complement(self):
        code = make_code(2, [0, 3])
        assert complement(code).words == (1, 2)
        with pytest.raises(EmptyCodeError):
            complement(make_code(2, [0, 1, 2, 3]))

    @pytest.mark.parametrize("n", [25, 64])
    def test_complement_refuses_dimensions_past_the_transform_limit(self, n):
        with pytest.raises(DimensionRangeError):
            complement(make_code(n, [0, (1 << n) - 1]))

    def test_star_mirrors_through_all_ones(self):
        assert star(make_code(2, [0])).words == (3,)
        assert star(make_code(3, [1, 6])).words == (1, 6)

    def test_star_is_involution(self, rng):
        for _ in range(20):
            code = random_code(rng, 4)
            assert star(star(code)).words == code.words

    @pytest.mark.parametrize("k", [48, 60, 62, 63, 64])
    def test_subcube_at_64_bits(self, k):
        low = (1 << k) - 1
        code = subcube(64, k)
        assert code.words == tuple(low | (m << k) for m in range(1 << (64 - k)))

    def test_subcube_fixes_low_coordinates(self):
        assert subcube(3, 1).words == (1, 3, 5, 7)
        assert subcube(3, 3).words == (7,)
        assert subcube(3, 0).size == 8
        with pytest.raises(ParameterRangeError):
            subcube(2, 3)

    def test_hamming_ball(self):
        assert hamming_ball(3, 0, 1).words == (0, 1, 2, 4)
        assert hamming_ball(3, 0, 0).words == (0,)
        assert hamming_ball(3, 0, 3).size == 8
        shifted = hamming_ball(3, 7, 1)
        assert shifted.words == (3, 5, 6, 7)
        with pytest.raises(WordRangeError):
            hamming_ball(2, 4, 1)
        with pytest.raises(ParameterRangeError):
            hamming_ball(2, 0, 3)


class TestSymmetry:
    def test_group_orders(self):
        assert len(symmetry_group(2)) == 8
        assert len(symmetry_group(3)) == 48
        with pytest.raises(DimensionRangeError):
            symmetry_group(7)

    def test_apply_permutes_then_flips(self):
        g = CubeSymmetry(perm=(1, 0), flips=0)
        assert apply_symmetry(g, make_code(2, [1])).words == (2,)
        h = CubeSymmetry(perm=(0, 1), flips=3)
        assert apply_symmetry(h, make_code(2, [0])).words == (3,)

    def test_symmetry_validation(self):
        with pytest.raises(ParameterRangeError):
            CubeSymmetry(perm=(0, 0), flips=0)
        with pytest.raises(WordRangeError):
            CubeSymmetry(perm=(0, 1), flips=4)

    def test_group_elements_act_bijectively(self):
        full = make_code(3, range(8))
        for g in symmetry_group(3):
            assert apply_symmetry(g, full).size == 8
            for w in range(8):
                assert apply_symmetry(g, make_code(3, [w])).words == (g.apply(w),)

    def test_distance_distribution_invariant_under_joint_action(self, rng):
        group = symmetry_group(4)
        for _ in range(20):
            a = random_code(rng, 4)
            b = random_code(rng, 4)
            g = group[rng.integers(len(group))]
            base = distance_distribution(a, b).p
            moved = distance_distribution(
                apply_symmetry(g, a), apply_symmetry(g, b)
            ).p
            assert np.allclose(base, moved, atol=1e-15)


class TestCanonicalization:
    def test_canonical_form_is_idempotent(self, rng):
        for _ in range(30):
            code = random_code(rng, 4)
            canon = canonical_form(code)
            assert canonical_form(canon).words == canon.words

    def test_canonical_form_constant_on_orbits(self, rng):
        group = symmetry_group(4)
        for _ in range(100):
            code = random_code(rng, 4)
            g = group[rng.integers(len(group))]
            a = canonical_form(code)
            b = canonical_form(apply_symmetry(g, code))
            assert a.words == b.words

    def test_canonical_pair_constant_under_joint_action(self, rng):
        group = symmetry_group(4)
        for _ in range(50):
            a = random_code(rng, 4)
            b = random_code(rng, 4)
            g = group[rng.integers(len(group))]
            base = canonical_pair(a, b)
            moved = canonical_pair(apply_symmetry(g, a), apply_symmetry(g, b))
            assert base[0].words == moved[0].words
            assert base[1].words == moved[1].words

    def test_canonical_pair_keeps_self_pairs_equal(self, rng):
        for _ in range(20):
            code = random_code(rng, 4)
            left, right = canonical_pair(code, code)
            assert left.words == right.words

    def test_canonical_pair_not_coarser_than_independent_forms(self):
        a = make_code(3, [0, 3])
        b = make_code(3, [1, 2, 4])
        ca, cb = canonical_pair(a, b)
        assert distance_distribution(ca, cb).p == distance_distribution(a, b).p

    def test_dimension_guard(self):
        with pytest.raises(DimensionRangeError):
            canonical_form(make_code(7, [0]))
        with pytest.raises(DimensionRangeError):
            canonical_pair(make_code(7, [0]), make_code(7, [1]))


def every_code(n):
    """All 2^(2^n) - 1 nonempty codes of dimension n."""
    return [
        make_code(n, [w for w in range(1 << n) if mask >> w & 1])
        for mask in range(1, 1 << (1 << n))
    ]


class TestCanonicalKeyReference:
    """Canonical forms and pairs against the brute-force orbit minimum."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_code_up_to_n3(self, n):
        for code in every_code(n):
            assert canonical_form(code).words == min(brute_orbit(code))[0]

    @pytest.mark.parametrize("n,count", [(4, 40), (5, 8)])
    def test_random_codes(self, rng, n, count):
        for _ in range(count):
            code = random_code(rng, n)
            assert canonical_form(code).words == min(brute_orbit(code))[0]

    @pytest.mark.parametrize("n", [1, 2])
    def test_every_pair_up_to_n2(self, n):
        codes = every_code(n)
        for a in codes:
            for b in codes:
                ca, cb = canonical_pair(a, b)
                assert (ca.words, cb.words) == min(brute_orbit(a, b))

    @pytest.mark.parametrize("n,count", [(3, 30), (4, 20), (5, 4)])
    def test_random_pairs(self, rng, n, count):
        for _ in range(count):
            a, b = random_code(rng, n), random_code(rng, n)
            ca, cb = canonical_pair(a, b)
            assert (ca.words, cb.words) == min(brute_orbit(a, b))

    def test_n6_single_words(self):
        first, last = make_code(6, [0]), make_code(6, [63])
        for code in (first, last):
            assert canonical_form(code).words == (0,) == min(brute_orbit(code))[0]
        ca, cb = canonical_pair(last, first)
        assert (ca.words, cb.words) == ((0,), (63,)) == min(brute_orbit(last, first))
        ca, cb = canonical_pair(last, last)
        assert ca.words == cb.words == (0,)

    def test_n6_full_cube(self):
        full = make_code(6, range(64))
        assert canonical_form(full).words == full.words
        # Every symmetry fixes the full cube, so the pair minimizes the other code alone.
        ca, cb = canonical_pair(full, make_code(6, [63]))
        assert (ca.words, cb.words) == (full.words, (0,))
        ca, cb = canonical_pair(make_code(6, [63]), full)
        assert (ca.words, cb.words) == ((0,), full.words)

    def test_n6_code_with_complement(self):
        # g maps the complement of A to the complement of g(A), so the smallest
        # complement comes from the largest image of A.
        code = make_code(6, [5, 6, 40])
        images = brute_orbit(code)
        low, high = min(images)[0], max(images)[0]
        other = complement(code)
        assert canonical_form(other).words == complement(make_code(6, high)).words
        ca, cb = canonical_pair(code, other)
        assert (ca.words, cb.words) == (low, complement(make_code(6, low)).words)
        ca, cb = canonical_pair(other, code)
        assert (ca.words, cb.words) == (complement(make_code(6, high)).words, high)


class TestSerialization:
    def test_format_is_msb_first(self):
        assert format_code(make_code(3, [4])) == "n=3\n100\n"
        assert format_code(make_code(3, [1])) == "n=3\n001\n"
        assert format_code(make_code(64, [0, 2**64 - 1])) == f"n=64\n{'0' * 64}\n{'1' * 64}\n"

    def test_round_trip_examples(self):
        code = make_code(4, [0, 5, 9, 15])
        assert parse_code(format_code(code)).words == code.words

    @given(small_codes())
    def test_round_trip_property(self, code):
        again = parse_code(format_code(code))
        assert again.n == code.n
        assert again.words == code.words

    def test_parse_rejects_bad_input(self):
        with pytest.raises(FormatError):
            parse_code("m=2\n01\n")
        with pytest.raises(FormatError):
            parse_code("n=2\n012\n")
        with pytest.raises(FormatError):
            parse_code("n=2\n01\n2\n")
        with pytest.raises(FormatError):
            parse_code("n=x\n01\n")

    def test_parse_tolerates_surrounding_whitespace(self):
        assert parse_code("n=2\n01\n10\n").words == (1, 2)
