from functools import reduce
from operator import mul

import pytest
from hypothesis import given
from hypothesis import strategies as st

from treedegree import (
    TruncatedSeries,
    binomial,
    catalan,
    catalan_power_coeff,
    catalan_series,
    count_kary_outdegree,
    count_plane_outdegree,
    enumerate_kary_trees,
    kary_derivative_series,
    kary_series,
    plane_derivative_series,
    verify_kary_power_coeff,
    series,
    verification,
)
from treedegree.cli import main
from treedegree.series import _product, _quotient


def naive_product(a, b):
    # Reference for TruncatedSeries.__mul__: the schoolbook double loop.
    out = [0] * len(a)
    for i, x in enumerate(a):
        for j, y in enumerate(b[: len(a) - i]):
            out[i + j] += x * y
    return tuple(out)


def miller_weighted(k, order):
    # Reference for kary_series: Miller's recurrence as written,
    # n*b_n = sum_{j=1..n} ((k+1)j - n) b_{j-1} b_{n-j}, every term weighted.
    b = [1]
    for n in range(1, order + 1):
        total = sum(((k + 1) * j - n) * b[j - 1] * b[n - j] for j in range(1, n + 1))
        quotient, remainder = divmod(total, n)
        assert remainder == 0
        b.append(quotient)
    return tuple(b)


def segner_plain(order):
    # Reference for catalan_series: c_n = sum_{j<n} c_j c_{n-1-j}, every product taken.
    c = [1]
    for n in range(1, order + 1):
        c.append(sum(c[j] * c[n - 1 - j] for j in range(n)))
    return tuple(c)


def shifted_power_plane(i, order):
    # Reference for plane_derivative_series: sum_{m >= 0} z^(m+i) C^(2m+i),
    # the terms with m + i > order vanishing below the truncation.
    c = catalan_series(order)
    total = TruncatedSeries.constant(0, order)
    for m in range(order - i + 1):
        total = total + (c ** (2 * m + i)).shift(m + i)
    return total


def shifted_power_kary(k, i, order):
    # Reference for kary_derivative_series:
    # C(k,i) sum_{r >= 0} (k-1)^r (z^(i+r) B^(i+r) + z^(i+r+1) B^(i+r+1)).
    b = kary_series(k, order)
    total = TruncatedSeries.constant(0, order)
    for r in range(order - i + 1):
        total = total + (k - 1) ** r * (
            (b ** (i + r)).shift(i + r) + (b ** (i + r + 1)).shift(i + r + 1)
        )
    return binomial(k, i) * total


def coefficient_pairs():
    signed = st.one_of(st.just(0), st.integers(-(10**30), 10**30))
    return st.integers(0, 12).flatmap(
        lambda n: st.tuples(
            st.lists(signed, min_size=n + 1, max_size=n + 1),
            st.lists(signed, min_size=n + 1, max_size=n + 1),
        )
    )


class TestTruncatedSeries:
    def test_arithmetic(self):
        a = TruncatedSeries([1, 2, 3])
        b = TruncatedSeries([0, 1, 0])
        assert (a + b).coefficients == (1, 3, 3)
        assert (a - b).coefficients == (1, 1, 3)
        assert (a * b).coefficients == (0, 1, 2)
        assert (a**2).coefficients == (1, 4, 10)
        assert (3 * a).coefficients == (3, 6, 9)
        assert (1 - b).coefficients == (1, -1, 0)

    def test_shift_and_truncate(self):
        a = TruncatedSeries([1, 2, 3])
        assert a.shift(1).coefficients == (0, 1, 2)
        assert a.shift(5).coefficients == (0, 0, 0)
        assert TruncatedSeries(a.coefficients[:2]).order == 1

    def test_mixed_orders_rejected(self):
        a = TruncatedSeries([1, 2, 3])
        b = TruncatedSeries([1, 2])
        for op in (lambda: a + b, lambda: a * b, lambda: a - b):
            with pytest.raises(ValueError):
                op()

    def test_coefficient_bounds(self):
        a = TruncatedSeries([1, 2, 3])
        assert a[2] == 3
        with pytest.raises(IndexError):
            a[3]

    @given(coefficient_pairs())
    def test_mul_matches_naive_double_loop(self, pair):
        a, b = pair
        product = TruncatedSeries(a) * TruncatedSeries(b)
        assert product.coefficients == naive_product(a, b)

    def test_power_matches_repeated_multiplication(self):
        for s in (catalan_series(40), kary_series(3, 40)):
            assert s ** 0 == TruncatedSeries.constant(1, 40)
            for e in range(1, 7):
                assert s ** e == reduce(mul, [s] * e)

    def test_float_coefficients_rejected(self):
        # int() would silently truncate these to (1, 2).
        with pytest.raises(TypeError):
            TruncatedSeries([1.5, 2.9])
        with pytest.raises(TypeError):
            TruncatedSeries([1, 2.0])

    def test_immutable(self):
        a = TruncatedSeries([1, 2, 3])
        with pytest.raises(AttributeError):
            a.coefficients = (0,)

    def test_truncation_is_consistent(self):
        # Coefficient n of a product must not depend on dropped tails.
        a = catalan_series(12)
        b = kary_series(3, 12)
        low = TruncatedSeries(a.coefficients[:7]) * TruncatedSeries(b.coefficients[:7])
        assert (a * b).coefficients[:7] == low.coefficients


class TestDefiningEquations:
    def test_catalan_coefficients(self):
        assert catalan_series(3).coefficients == (1, 1, 2, 5)
        assert catalan_series(0)[0] == 1
        series = catalan_series(30)
        for n in range(31):
            assert series[n] == catalan(n)

    def test_catalan_residual(self):
        c = catalan_series(30)
        assert c - (1 + (c * c).shift(1)) == TruncatedSeries.constant(0, 30)
        assert (1 - c.shift(1)) * c == TruncatedSeries.constant(1, 30)

    def test_kary_coefficients(self):
        assert kary_series(2, 3).coefficients == (1, 2, 5, 14)
        assert kary_series(1, 8).coefficients == (1,) * 9
        assert kary_series(3, 2)[2] == 12

    def test_kary_residuals(self):
        # Miller's recurrence builds B_k; the residual B - (1 + zB)^k is
        # formed here by repeated plain multiplication instead.
        for k in range(1, 7):
            assert kary_series(k, 0).coefficients == (1,)
            b = kary_series(k, 60)
            f = b.shift(1) + 1
            power = f
            for _ in range(k - 1):
                power = power * f
            assert b - power == TruncatedSeries.constant(0, 60)

    def test_wrong_kary_series_fails_residual_check(self, monkeypatch, capsys):
        real = kary_series

        def off_by_one(k, order):
            coefficients = list(real(k, order).coefficients)
            if order >= 5:
                coefficients[5] += 1
            return TruncatedSeries(coefficients)

        monkeypatch.setattr(verification, "kary_series", off_by_one)
        code = main(["verify", "lagrange", "--max-arity", "3"])
        lines = capsys.readouterr().out.splitlines()
        residual = [line for line in lines if "defining-equation residuals" in line]
        assert code == 1
        assert len(residual) == 1 and residual[0].startswith("FAIL ")

    def test_catalan_matches_the_plain_segner_sum(self):
        assert catalan_series(80).coefficients == segner_plain(80)

    def test_kary_matches_the_weighted_miller_sum(self):
        for k in range(1, 7):
            assert kary_series(k, 80).coefficients == miller_weighted(k, 80)

    def test_kary_closed_form(self):
        for k in range(1, 6):
            series = kary_series(k, 10)
            for n in range(11):
                assert (n + 1) * series[n] == binomial(k * (n + 1), n)

    def test_kary_matches_enumeration(self):
        for k, top in [(2, 5), (3, 4), (4, 3)]:
            series = kary_series(k, top)
            for n in range(top + 1):
                assert series[n] == sum(1 for _ in enumerate_kary_trees(k, n))


class TestPowerCoefficientLaws:
    def test_catalan_examples(self):
        for n, l, value in [(0, 7, 1), (2, 1, 2), (3, 2, 14)]:
            assert (catalan_series(n) ** l)[n] == catalan_power_coeff(n, l) == value

    def test_catalan_sweep(self):
        for n in range(0, 21):
            for l in range(1, 11):
                assert (catalan_series(n) ** l)[n] == catalan_power_coeff(n, l), (n, l)

    def test_kary_examples(self):
        assert verify_kary_power_coeff(2, 2, 1) == (5, 5)
        assert verify_kary_power_coeff(2, 1, 1) == (2, 2)
        assert verify_kary_power_coeff(4, 0, 3) == (1, 1)

    def test_kary_sweep(self):
        for k in range(1, 6):
            for n in range(0, 13):
                for l in range(1, 7):
                    lhs, rhs = verify_kary_power_coeff(k, n, l)
                    assert lhs == rhs

    def test_naive_kary_law_fails(self):
        # The naive law [z^n] B_k^l = l/n * C(kn, n) is wrong at
        # k=2, n=2, l=1; compare cross-multiplied to stay in integers.
        series_value = kary_series(2, 2)[2]
        assert series_value == 5
        assert 2 * series_value != 1 * binomial(4, 2)

    def test_shifted_form_used_by_derivative_series(self):
        # [z^(n-r-i)] B_k^(i+r) = (i+r)/n * C(kn, n-r-i) for the cells the
        # derivative expansion consumes.
        from treedegree import exact_div

        for k in range(1, 5):
            b = kary_series(k, 10)
            for n in range(1, 11):
                for i in range(0, k + 1):
                    for r in range(0, n - i + 1):
                        power = i + r
                        if power == 0:
                            continue
                        lhs = (b**power)[n - r - i]
                        rhs = exact_div(
                            power * binomial(k * n, n - r - i), n, "shifted law"
                        )
                        assert lhs == rhs

    def test_wrappers_raise_on_a_wrong_law(self, monkeypatch):
        # The wrapper compares the series with the one closed form in
        # exact_math, which it looks up at call time.
        monkeypatch.setattr(series, "kary_power_coeff", lambda k, n, l: 4)
        with pytest.raises(AssertionError, match=r"^\[z\^2\] B_2\^1: series 5 != closed form 4$"):
            verify_kary_power_coeff(2, 2, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            catalan_power_coeff(3, 0)
        with pytest.raises(ValueError):
            verify_kary_power_coeff(0, 3, 1)


class TestDerivativeSeries:
    def test_plane_values(self):
        series = plane_derivative_series(0, 3)
        assert [series[n] for n in (1, 2, 3)] == [1, 3, 10]
        assert plane_derivative_series(2, 2)[2] == 1
        assert plane_derivative_series(5, 3)[3] == 0

    def test_plane_matches_closed_form(self):
        for i in range(0, 8):
            series = plane_derivative_series(i, 20)
            for n in range(1, 21):
                assert series[n] == count_plane_outdegree(n, i)

    def test_kary_values(self):
        assert kary_derivative_series(2, 1, 2)[2] == 8
        assert kary_derivative_series(2, 2, 3)[3] == 6
        assert kary_derivative_series(3, 0, 1)[1] == 3

    def test_kary_matches_closed_form(self):
        for k in range(1, 6):
            for i in range(0, k + 1):
                series = kary_derivative_series(k, i, 12)
                for n in range(1, 13):
                    assert series[n] == count_kary_outdegree(n, k, i)

    def test_plane_matches_shifted_power_sum(self):
        for i in range(7):
            for order in sorted({0, i, 30}):
                assert plane_derivative_series(i, order) == shifted_power_plane(i, order)

    def test_kary_matches_shifted_power_sum(self):
        # k = 1 has weight (k-1) = 0: only the r = 0 term survives.
        for k in range(1, 5):
            for i in range(k + 1):
                for order in sorted({0, i, 20}):
                    assert kary_derivative_series(k, i, order) == shifted_power_kary(
                        k, i, order
                    )

    def test_quotient_by_the_plane_denominator(self):
        c = catalan_series(40)
        q = 1 - (c * c).shift(1)
        for p in (TruncatedSeries.constant(1, 40), c**3):
            assert TruncatedSeries(_quotient(p.coefficients, q.coefficients, 40)) * q == p

    @given(coefficient_pairs())
    def test_quotient_times_denominator_is_numerator(self, pair):
        p, q = pair[0], [1, *pair[1][1:]]
        top = len(p) - 1
        assert _product(_quotient(p, q, top), q, top) == p

    def test_order_200_matches_closed_forms(self):
        # Quadratic in the order: about 0.03 s, where the cubic shifted-power
        # construction took about 0.5 s for these two calls.
        assert plane_derivative_series(3, 200).coefficients == (
            0,
            *(binomial(2 * n - 4, n - 1) for n in range(1, 201)),
        )
        assert kary_derivative_series(3, 1, 200).coefficients == (
            0,
            *(3 * binomial(3 * n, n - 1) for n in range(1, 201)),
        )

    def test_truncation_of_infinite_sums_is_stable(self):
        # Adding one more term of either expansion cannot change any kept
        # coefficient: the extra term's lowest degree exceeds the order.
        order, i = 9, 2
        c = catalan_series(order)
        extra = (c ** (2 * (order - i + 1) + i)).shift(order + 1)
        assert plane_derivative_series(i, order) + extra == plane_derivative_series(
            i, order
        )
        k = 3
        b = kary_series(k, order)
        r = order - i + 1
        extra_kary = binomial(k, i) * (
            ((b ** (i + r)).shift(i + r) + (b ** (i + r + 1)).shift(i + r + 1))
            * (k - 1) ** r
        )
        assert (
            kary_derivative_series(k, i, order) + extra_kary
            == kary_derivative_series(k, i, order)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            plane_derivative_series(-1, 5)
        with pytest.raises(ValueError):
            kary_derivative_series(2, 3, 5)
