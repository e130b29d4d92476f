import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dna_necklace import cli, counting
from dna_necklace.counting import (
    IntegralityError,
    NecklaceSpec,
    _totient,
    alternation_distribution,
    bracelet_count_direct,
    count_necklaces,
)
from reference.cycle_index import count_orbits, dihedral_bipartite_index, divisors
from reference.cycle_index import totient as totient_by_definition
from cli_harness import run_cli


def total_count(spec):
    """Total distinct necklaces with the given content, summed over alpha."""
    return sum(alternation_distribution(spec).values())


def rig_comb(monkeypatch, n, k):
    """Make the counting kernels read C(n, k) one higher than it is."""
    real = counting.comb
    monkeypatch.setattr(counting, "comb", lambda a, b: real(a, b) + ((a, b) == (n, k)))


def raise_from_cli_count(monkeypatch):
    def boom(spec, alpha):
        raise IntegralityError("rigged")

    monkeypatch.setattr(cli, "count_necklaces", boom)


@pytest.mark.parametrize(
    "rig, argv",
    [
        # C(7, 4) one higher adds C(5, 4) = 5 fixed points over 2M = 10.
        (lambda mp: rig_comb(mp, 7, 4), ["count", "--alpha", "10", "--at", "8", "--gc", "6"]),
        # phi(2) read as 2 leaves 25 fixed points over 2M = 4.
        (
            lambda mp: mp.setattr(counting, "_totient", lambda d: 2 if d == 2 else 1),
            ["count", "--alpha", "4", "--at", "4", "--gc", "6"],
        ),
        # The identity term C(7499, 3749)^2 has over 4 300 digits, so the
        # total does too; reading C(7499, 3749) one higher adds an odd
        # number of fixed points over 2M = 7500.
        (
            lambda mp: rig_comb(mp, 7499, 3749),
            ["--quiet", "count", "--alpha", "7500", "--at", "7500", "--gc", "7500"],
        ),
        (raise_from_cli_count, ["count", "--alpha", "2", "--at", "1", "--gc", "1"]),
    ],
    ids=["identity-comb", "totient-at-two", "past-digit-limit", "cli-count-raises"],
)
def test_integrality_failure_exits_three(monkeypatch, rig, argv):
    rig(monkeypatch)
    code, out, err = run_cli(*argv)
    assert (code, out) == (3, ""), err
    assert err.startswith("integrality failure: ") and len(err.splitlines()) == 1, err
    assert "Traceback" not in err and "Exceeds the limit" not in err


def every_query(contents):
    """(M, n_at, n_gc) for every M in the support of each (n_at, n_gc)."""
    return [(m, a, b) for a, b in contents for m in range(1, min(a, b) + 1)]


# The queries on which the kernel is compared with the cycle-index route.
KERNEL_QUERIES = {
    "every-small-query": every_query(
        (n_at, n - n_at) for n in range(2, 41) for n_at in range(1, n)
    ),
    # Contents at which rotations past the identity contribute, every M.
    "rotation-contents": every_query(
        [(4, 6), (6, 12), (12, 18), (24, 24), (36, 24), (30, 45)]
    ),
}


@st.composite
def container_queries(draw, max_total=200):
    """(M, n_at, n_gc) with both colors present, N <= max_total, M in support."""
    n_at = draw(st.integers(1, max_total - 1))
    n_gc = draw(st.integers(1, max_total - n_at))
    m = draw(st.integers(1, min(n_at, n_gc)))
    return m, n_at, n_gc


class TestNecklaceSpec:
    def test_derived_quantities(self):
        spec = NecklaceSpec(8, 6)
        assert spec.total == 14
        assert spec.max_alternations == 12


class TestNecklaceCount:
    def test_single_block_of_each_color(self):
        assert count_necklaces(NecklaceSpec(2, 1), 2) == 1

    def test_color_symmetry(self):
        for a, b in [(8, 6), (9, 4), (12, 7), (5, 5), (6, 9), (12, 5)]:
            assert alternation_distribution(NecklaceSpec(a, b)) == (
                alternation_distribution(NecklaceSpec(b, a))
            ), (a, b)

    def test_support_is_exactly_one_to_min(self):
        for a in range(1, 11):
            for b in range(1, 11):
                spec = NecklaceSpec(a, b)
                for m in range(1, 13):
                    count = count_necklaces(spec, 2 * m)
                    if m <= min(a, b):
                        assert count > 0, (a, b, m)
                    else:
                        assert count == 0, (a, b, m)


class TestClosedFormKernel:
    """The integer Burnside kernel against the cycle-index reference route."""

    @given(container_queries())
    def test_matches_cycle_index_route(self, query):
        m, n_at, n_gc = query
        assert count_necklaces(NecklaceSpec(n_at, n_gc), 2 * m) == count_orbits(
            dihedral_bipartite_index(m), n_at, n_gc
        )

    @pytest.mark.parametrize("group", list(KERNEL_QUERIES))
    def test_matches_cycle_index_route_for_query_group(self, group):
        for m, n_at, n_gc in KERNEL_QUERIES[group]:
            assert count_necklaces(NecklaceSpec(n_at, n_gc), 2 * m) == count_orbits(
                dihedral_bipartite_index(m), n_at, n_gc
            ), (m, n_at, n_gc)

    @pytest.mark.parametrize(
        "m, n_at, n_gc",
        [
            (60, 120, 240),
            (72, 144, 216),
            (120, 240, 360),
            (360, 720, 720),
            (24, 100, 90),
            (24, 101, 90),
            (24, 100, 91),
            (24, 101, 91),
        ],
    )
    def test_divisor_walk_matches_cycle_index_route(self, m, n_at, n_gc):
        # The first four have gcd(M, n_at, n_gc) = M, with 12 to 24
        # divisors, each of whose rotations fixes some assignments.  The
        # last four take the even-M reflection term through each parity
        # class of (n_at, n_gc): even/even, odd/even, even/odd, odd/odd.
        assert count_necklaces(NecklaceSpec(n_at, n_gc), 2 * m) == count_orbits(
            dihedral_bipartite_index(m), n_at, n_gc
        )

    def test_long_chain_totals_match_bead_burnside(self):
        for spec in [
            NecklaceSpec(500, 500),
            NecklaceSpec(700, 1400),
            NecklaceSpec(1201, 1200),
            NecklaceSpec(429, 2571),
        ]:
            assert total_count(spec) == bracelet_count_direct(spec), spec

    def test_non_divisible_total_raises(self, monkeypatch):
        # Reading C(7, 4) one higher adds C(5, 4) = 5 fixed points to the
        # identity rotation's C(7, 4) * C(5, 4), which 2M = 10 does not
        # divide; gcd(5, 8, 6) = 1, so no other rotation contributes.
        rig_comb(monkeypatch, 7, 4)
        with pytest.raises(IntegralityError, match="not divisible"):
            count_necklaces(NecklaceSpec(8, 6), 10)

    def test_non_divisible_rotation_sum_raises(self, monkeypatch):
        # gcd(2, 4, 6) = 2: the half-turn fixes C(1, 0) * C(2, 0) = 1
        # assignment, so phi(2) read as 2 leaves 25 fixed points over 2M = 4.
        monkeypatch.setattr(counting, "_totient", lambda d: 2 if d == 2 else 1)
        with pytest.raises(IntegralityError, match="not divisible"):
            count_necklaces(NecklaceSpec(4, 6), 4)

    def test_misread_totient_past_two_raises(self, monkeypatch):
        # gcd(6, 6, 12) = 6: the third-turns fix C(1, 1) * C(3, 1) = 3
        # assignments, so phi(3) read one higher leaves 603 fixed points
        # over 2M = 12; the d = 2 and d = 6 terms are read correctly.
        real = counting._totient
        monkeypatch.setattr(counting, "_totient", lambda d: real(d) + (d == 3))
        with pytest.raises(IntegralityError, match="603 not divisible by .* 12"):
            count_necklaces(NecklaceSpec(6, 12), 12)


class TestCountNecklaces:
    def test_alpha_dispatch(self):
        assert count_necklaces(NecklaceSpec(8, 6), 10) == 19
        assert count_necklaces(NecklaceSpec(0, 7), 0) == 1
        assert count_necklaces(NecklaceSpec(3, 4), 0) == 0

    @pytest.mark.parametrize(
        "alpha, message",
        [
            (-3, "must be >= 0, got -3"),
            (-2, "must be >= 0, got -2"),
            (-1, "must be >= 0, got -1"),
            (1, "must be even, got 1"),
            (3, "must be even, got 3"),
        ],
    )
    def test_rejection_messages_and_their_order(self, alpha, message):
        # A negative odd alpha is reported as negative, not as odd.
        with pytest.raises(ValueError) as info:
            count_necklaces(NecklaceSpec(5, 5), alpha)
        assert str(info.value) == f"alternation count {message}"


class TestZeroAlternationCount:
    def test_homogeneous_chains(self):
        assert count_necklaces(NecklaceSpec(0, 7), 0) == 1
        assert count_necklaces(NecklaceSpec(5, 0), 0) == 1


class TestAlternationDistribution:
    def test_known_small_distributions(self):
        assert alternation_distribution(NecklaceSpec(2, 2)) == {0: 0, 2: 1, 4: 1}
        assert alternation_distribution(NecklaceSpec(1, 1)) == {0: 0, 2: 1}
        assert alternation_distribution(NecklaceSpec(0, 4)) == {0: 1}

    def test_keys_are_every_even_value_in_range(self):
        for a, b in [(3, 9), (7, 7), (0, 5), (10, 2), (6, 9), (12, 5)]:
            dist = alternation_distribution(NecklaceSpec(a, b))
            assert sorted(dist) == list(range(0, 2 * min(a, b) + 1, 2))


class TestTotals:
    def test_direct_burnside_known_values(self):
        assert bracelet_count_direct(NecklaceSpec(2, 2)) == 2
        assert bracelet_count_direct(NecklaceSpec(0, 1)) == 1
        assert bracelet_count_direct(NecklaceSpec(8, 6)) == 126

    def test_direct_burnside_remainder_raises(self, monkeypatch):
        # C(14, 8) read one higher leaves 3529 fixed points over 2N = 28.
        rig_comb(monkeypatch, 14, 8)
        with pytest.raises(IntegralityError, match="3529 not divisible"):
            bracelet_count_direct(NecklaceSpec(8, 6))

    def test_direct_burnside_remainder_past_digit_limit_raises(self, monkeypatch):
        # C(15000, 7500) has over 4 300 digits; read one higher, it leaves
        # a remainder of 1 over 2N = 30000.
        rig_comb(monkeypatch, 15000, 7500)
        with pytest.raises(IntegralityError, match="not divisible by group order 30000"):
            bracelet_count_direct(NecklaceSpec(7500, 7500))

    def test_two_independent_derivations_agree(self):
        # Every content up to N = 120, one color absent included, and
        # contents whose gcd(N, n_at) has many divisors.
        specs = [NecklaceSpec(a, n - a) for n in range(1, 121) for a in range(n + 1)]
        specs += [NecklaceSpec(99, 101), NecklaceSpec(720, 360)]
        specs += [NecklaceSpec(360, 720), NecklaceSpec(0, 720)]
        for spec in specs:
            assert total_count(spec) == bracelet_count_direct(spec), spec


class TestTotient:
    """The kernel's private `_totient` against the reference route's phi,
    which counts coprime j from the definition and so shares no arithmetic
    with `_totient`'s trial division."""

    def test_known_values(self):
        assert _totient(1) == 1
        assert _totient(5) == 4
        assert _totient(12) == 4

    def test_multiplicative_on_coprime_pairs(self):
        for m in range(1, 101):
            for n in range(1, 101):
                if math.gcd(m, n) == 1:
                    assert _totient(m * n) == _totient(m) * _totient(n)

    def test_divisor_sum_identity(self):
        for n in range(1, 501):
            assert sum(_totient(d) for d in divisors(n)) == n

    def test_reference_satisfies_divisor_sum_identity(self):
        # Gauss's identity checks the reference phi without the kernel's.
        for n in range(1, 501):
            assert sum(totient_by_definition(d) for d in divisors(n)) == n

    def test_matches_gcd_count_definition(self):
        for n in range(1, 2001):
            assert _totient(n) == totient_by_definition(n), n

    def test_large_values_match_definition(self):
        # Past the exhaustive range: the primes 10 007 and 65 537, the
        # semiprime 10 001 = 73 * 137, 12 288 = 2^12 * 3 and the primorial
        # 30 030 = 2 * 3 * 5 * 7 * 11 * 13.
        for n in (10_001, 10_007, 12_288, 30_030, 65_537):
            assert _totient(n) == totient_by_definition(n)
