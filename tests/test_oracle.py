from itertools import product

import pytest

from dna_necklace.oracle import canonical_form, count_alternations, enumerate_all


def all_strings(length):
    return ("".join(bits) for bits in product("01", repeat=length))


def rotate(s, k):
    k %= len(s)
    return s[k:] + s[:k]


class TestCountAlternations:
    def test_known_values(self):
        assert count_alternations("0000") == 0
        assert count_alternations("01") == 2
        assert count_alternations("010011") == 4

    def test_single_bead_has_none(self):
        assert count_alternations("0") == 0
        assert count_alternations("1") == 0

    def test_always_even(self):
        for length in range(1, 13):
            for s in all_strings(length):
                assert count_alternations(s) % 2 == 0

    def test_rejects_bad_strings(self):
        with pytest.raises(ValueError):
            count_alternations("")
        with pytest.raises(ValueError):
            count_alternations("01x0")


class TestCanonicalForm:
    def test_known_values(self):
        assert canonical_form("10") == "01"
        assert canonical_form("0011") == "0011"

    def test_reflected_strings_share_a_form(self):
        assert canonical_form("011001") == canonical_form("010011")

    def test_idempotent(self):
        for length in range(1, 11):
            for s in all_strings(length):
                c = canonical_form(s)
                assert canonical_form(c) == c

    def test_invariant_under_rotation_and_reversal(self):
        for length in range(1, 11):
            for s in all_strings(length):
                c = canonical_form(s)
                assert canonical_form(s[::-1]) == c
                for k in range(length):
                    assert canonical_form(rotate(s, k)) == c

    def test_alternations_constant_on_each_class(self):
        for length in range(1, 11):
            for s in all_strings(length):
                assert count_alternations(s) == count_alternations(canonical_form(s))


class TestEnumerateAll:
    def test_length_four(self):
        assert enumerate_all(4) == {
            (0, 0): 1,
            (1, 2): 1,
            (2, 2): 1,
            (2, 4): 1,
            (3, 2): 1,
            (4, 0): 1,
        }

    def test_length_one(self):
        assert enumerate_all(1) == {(0, 0): 1, (1, 0): 1}

    def test_tallies_each_distinct_form_once_in_first_seen_order(self):
        for n in range(1, 11):
            forms = dict.fromkeys(
                canonical_form(format(value, f"0{n}b")) for value in range(2**n)
            )
            expected = {}
            for form in forms:
                key = (form.count("1"), count_alternations(form))
                expected[key] = expected.get(key, 0) + 1
            assert list(enumerate_all(n).items()) == list(expected.items()), n

    def test_rejects_out_of_range_lengths(self):
        with pytest.raises(ValueError):
            enumerate_all(0)
        with pytest.raises(ValueError):
            enumerate_all(19)
