import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treedegree import (
    binomial,
    catalan,
    count_kary_outdegree,
    count_odd_outdegree,
    count_plane_degree,
    count_plane_outdegree,
    fine_number,
    verify_outdegree_sequence_identity,
)
from treedegree import exact_math


def segner_catalan(limit):
    # Independent oracle: c_0 = 1, c_{n+1} = sum c_j c_{n-j}.
    values = [1]
    for n in range(limit):
        values.append(sum(values[j] * values[n - j] for j in range(n + 1)))
    return values


def odd_column_forward(n):
    # Reference for count_odd_outdegree: the odd column walked up from
    # C(2n-2, n-1) at i = 1, each step i -> i + 2 the ratio
    # (n-i)(n-i-1) / ((2n-i-1)(2n-i-2)).
    total = term = math.comb(2 * n - 2, n - 1)
    for i in range(1, n - 1, 2):
        term, remainder = divmod(
            term * (n - i) * (n - i - 1), (2 * n - i - 1) * (2 * n - i - 2)
        )
        assert remainder == 0
        total += term
    return total


def fine_closed_form(n):
    # Independent reference for the Fine recurrence:
    # F_n = 3 * sum_{j >= 0} C(2n - 2j, n) - 2 * C(2n + 1, n).
    tail_sum = sum(binomial(2 * n - 2 * j, n) for j in range(n // 2 + 1))
    return 3 * tail_sum - 2 * binomial(2 * n + 1, n)


def recursive_type_vectors(n):
    # Reference order: the depth-first recursion over r_n, ..., r_1 that
    # exact_math._outdegree_type_vectors replaced by an odometer.
    vec = [0] * (n + 1)

    def place(j, weight, used):
        if j == 0:
            if weight == 0:
                vec[0] = (n + 1) - used
                yield tuple(vec)
                vec[0] = 0
            return
        for r in range(weight // j + 1):
            vec[j] = r
            yield from place(j - 1, weight - j * r, used + r)
        vec[j] = 0

    return list(place(n, n, 0))


def partition_counts(limit):
    # p(0..limit) by adding one allowed part size at a time.
    p = [1] + [0] * limit
    for part in range(1, limit + 1):
        for total in range(part, limit + 1):
            p[total] += p[total - part]
    return p


def pascal_triangle(rows):
    tri = [[1]]
    for n in range(1, rows):
        prev = tri[-1]
        tri.append(
            [1] + [prev[m - 1] + prev[m] for m in range(1, n)] + [1]
        )
    return tri


class TestBinomial:
    def test_small_values(self):
        assert binomial(4, 2) == 6
        assert binomial(3, 5) == 0
        assert binomial(24, 6) == 134596

    def test_out_of_range_conventions(self):
        assert binomial(5, -1) == 0
        assert binomial(-1, 0) == 0
        assert binomial(-3, -3) == 0
        assert binomial(0, 0) == 1

    def test_matches_pascal_triangle(self):
        tri = pascal_triangle(30)
        for n in range(30):
            for m in range(n + 1):
                assert binomial(n, m) == tri[n][m]

    @given(st.integers(1, 60), st.integers(-3, 63))
    def test_pascal_recurrence(self, n, m):
        assert binomial(n, m) == binomial(n - 1, m) + binomial(n - 1, m - 1)


class TestMultinomial:
    def test_values(self):
        assert exact_math._multinomial([2, 1, 1, 0]) == 12
        assert exact_math._multinomial([4]) == 1
        assert exact_math._multinomial([1, 3]) == 4

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=6))
    def test_agrees_with_factorials(self, parts):
        import math

        n = sum(parts)
        expected = math.factorial(n)
        for p in parts:
            expected //= math.factorial(p)
        assert exact_math._multinomial(parts) == expected


class TestCatalan:
    def test_small_values(self):
        assert catalan(0) == 1
        assert catalan(3) == 5
        assert catalan(10) == 16796

    def test_matches_segner_recurrence(self):
        oracle = segner_catalan(25)
        assert [catalan(n) for n in range(26)] == oracle

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            catalan(-1)


class TestPlaneOutdegreeCount:
    def test_small_values(self):
        assert count_plane_outdegree(2, 0) == 3
        assert count_plane_outdegree(2, 2) == 1
        assert count_plane_outdegree(14, 2) == binomial(25, 13)

    def test_vanishes_past_edge_count(self):
        assert count_plane_outdegree(3, 4) == 0
        assert count_plane_outdegree(2, 9) == 0

    def test_row_and_edge_sums(self):
        for n in range(1, 16):
            row = sum(count_plane_outdegree(n, i) for i in range(n + 1))
            assert row == binomial(2 * n, n) == (n + 1) * catalan(n)
            edge = sum(i * count_plane_outdegree(n, i) for i in range(n + 1))
            assert edge == n * catalan(n)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            count_plane_outdegree(0, 0)
        with pytest.raises(ValueError):
            count_plane_outdegree(3, -1)


class TestKaryOutdegreeCount:
    def test_small_values(self):
        assert count_kary_outdegree(2, 2, 1) == 8
        assert count_kary_outdegree(3, 2, 1) == 30
        for k in range(1, 8):
            assert count_kary_outdegree(1, k, 1) == k

    def test_vanishes_out_of_range(self):
        assert count_kary_outdegree(2, 2, 3) == 0
        assert count_kary_outdegree(1, 5, 2) == 0

    def test_row_and_edge_sums(self):
        kary_count = lambda k, n: binomial(k * (n + 1), n) // (n + 1)  # noqa: E731
        for k in range(1, 6):
            for n in range(1, 8):
                row = sum(count_kary_outdegree(n, k, i) for i in range(k + 1))
                assert row == binomial(k * n + k, n) == (n + 1) * kary_count(k, n)
                edge = sum(i * count_kary_outdegree(n, k, i) for i in range(k + 1))
                assert edge == n * kary_count(k, n)


class TestPlaneDegreeCount:
    def test_doubles_outdegree_count(self):
        for n in range(1, 12):
            for i in range(1, n + 2):
                assert count_plane_degree(n, i) == 2 * count_plane_outdegree(n, i)

    def test_small_values(self):
        # Direct degree count over the two 2-edge trees: the path has
        # degrees (1, 2, 1) and the cherry (2, 1, 1), so four vertices of
        # degree 1 and two of degree 2.
        assert count_plane_degree(2, 1) == 4
        assert count_plane_degree(2, 2) == 2
        assert count_plane_degree(2, 3) == 0
        # Over the five 3-edge trees there are six degree-2 vertices.
        assert count_plane_degree(3, 2) == 6

    def test_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            count_plane_degree(3, 0)


class TestFineNumbers:
    def test_indexing(self):
        assert fine_number(0) == 1
        assert fine_number(1) == 0
        assert fine_number(2) == 1
        assert fine_number(3) == 2
        assert fine_number(4) == 6

    def test_matches_closed_form(self):
        for n in range(300):
            assert fine_number(n) == fine_closed_form(n)

    def test_recurrence_with_odd_counts(self):
        # count_odd_outdegree(n) = 2/3*C(2n-1, n) + 1/3*F_{n-1}, solved
        # for F: F_{n-1} = 3*odd(n) - 2*C(2n-1, n).
        for n in range(1, 15):
            odd = count_odd_outdegree(n)
            assert fine_number(n - 1) == 3 * odd - 2 * binomial(2 * n - 1, n)


class TestOddOutdegree:
    def test_small_values(self):
        assert count_odd_outdegree(1) == 1
        assert count_odd_outdegree(2) == 2
        assert count_odd_outdegree(3) == 7

    def test_equals_odd_row_slice(self):
        for n in range(1, 301):
            expected = sum(
                count_plane_outdegree(n, i) for i in range(1, n + 1, 2)
            )
            assert count_odd_outdegree(n) == expected

    def test_matches_the_forward_walk_and_the_binomial_sum(self):
        # Past the series-deep sweep (n <= 300), at odd and even n, so the
        # walk starts at top odd i = n and at i = n - 1.
        for n in [*range(1, 201), 301, 302, 1000, 1001, 2000]:
            odd = count_odd_outdegree(n)
            assert odd == odd_column_forward(n)
            assert odd == sum(math.comb(2 * n - i - 1, n - 1) for i in range(1, n + 1, 2))


class TestOutdegreeSequenceIdentity:
    def test_worked_cells(self):
        assert verify_outdegree_sequence_identity(3, 1) == (6, 6)
        assert verify_outdegree_sequence_identity(1, 1) == (1, 1)
        assert verify_outdegree_sequence_identity(4, 0) == (35, 35)

    @settings(deadline=None)
    @given(st.integers(1, 7), st.integers(0, 8))
    def test_holds_on_small_grid(self, n, i):
        lhs, rhs = verify_outdegree_sequence_identity(n, i)
        assert lhs == rhs

    def test_wrapper_raises_on_a_wrong_sum(self, monkeypatch):
        real = exact_math.outdegree_type_sum
        assert real(3, 1) == 6
        monkeypatch.setattr(exact_math, "outdegree_type_sum", lambda n, i: real(n, i) + 1)
        message = "^outdegree-type identity fails at n=3, i=1: 7 != 6$"
        with pytest.raises(AssertionError, match=message):
            verify_outdegree_sequence_identity(3, 1)

    def test_guard(self, monkeypatch):
        with pytest.raises(ValueError, match="guard"):
            verify_outdegree_sequence_identity(31, 0)
        with pytest.raises(ValueError, match="guard"):
            exact_math.outdegree_type_sum(31, 40)
        monkeypatch.setenv("TREEDEGREE_GUARD", "2")
        with pytest.raises(ValueError, match="guard"):
            verify_outdegree_sequence_identity(3, 0)

    def test_type_vectors_keep_the_recursive_order(self):
        # r_0 >= 1 always holds, so i = 0 yields every vector.
        for n in range(1, 15):
            every = recursive_type_vectors(n)
            for i in range(n + 1):
                expected = [vec for vec in every if vec[i]]
                assert list(exact_math._outdegree_type_vectors(n, i)) == expected

    def test_one_type_vector_per_partition(self):
        # Setting one outdegree-i vertex aside leaves a partition of n - i.
        p = partition_counts(30)
        for n in range(1, 31):
            for i in range(n + 1):
                vectors = list(exact_math._outdegree_type_vectors(n, i))
                assert len(vectors) == len(set(vectors)) == p[n - i]
                for vec in vectors:
                    assert vec[i] >= 1
                    assert sum(vec) == n + 1
                    assert sum(j * r for j, r in enumerate(vec)) == n

    def test_one_multinomial_per_vector_with_r_i(self, monkeypatch):
        # Counts the work: a sum that walked all p(n) vectors again would
        # see more vectors, or call _multinomial more often, than the p(n - i)
        # terms that count.
        p = partition_counts(30)
        walked, multinomials = [], []
        vectors, multinomial = exact_math._outdegree_type_vectors, exact_math._multinomial

        def counted_vectors(*args):
            for vec in vectors(*args):
                walked.append(vec)
                yield vec

        def counted_multinomial(parts):
            multinomials.append(parts)
            return multinomial(parts)

        monkeypatch.setattr(exact_math, "_outdegree_type_vectors", counted_vectors)
        monkeypatch.setattr(exact_math, "_multinomial", counted_multinomial)
        for n in (18, 30):
            for i in range(n + 2):
                walked.clear()
                multinomials.clear()
                assert exact_math.outdegree_type_sum(n, i) == count_plane_outdegree(n, i)
                assert len(walked) == len(multinomials) == (p[n - i] if i <= n else 0)
