"""Truncated power series with exact integer coefficients.

The generating function C(z) of plane trees satisfies C = 1 + z*C^2 and
the k-ary analogue B_k satisfies B_k = (1 + z*B_k)^k; both are computed
here coefficient by coefficient from their defining equations, with no
rationals and no rounding. C comes from Segner's convolution. B_k comes
from J. C. P. Miller's power recurrence (Knuth, TAOCP Vol. 2, 4.7): for
P = F^k with F = 1 + z*B_k and f_0 = 1,

    n * p_n = sum_{j=1..n} ((k+1)*j - n) * f_j * p_{n-j},

and since P = B_k this reads n*b_n = sum ((k+1)j - n) b_{j-1} b_{n-j}.
Substituting j -> n+1-j swaps the two factors, so each weight may be
replaced by its average with its mirror's, ((k-1)n + k + 1)/2:

    2n * b_n = ((k-1)n + k + 1) * sum_{j=0..n-1} b_j b_{n-1-j},

a self-convolution like Segner's, each product of two distinct
coefficients taken once and doubled. O(N^2) operations in all, each
quotient checked by ``exact_div``. The independent check that
B_k - (1 + z*B_k)^k vanishes, by plain truncated multiplication, lives
in ``verification._check_residuals``.

The derivative-at-1 series of the bivariate vertex-marking generating
functions are geometric sums of shifted powers of C and B_k, taken in
closed form as quotients:

    z^i C^i / (1 - z*C^2)                                  (plane, outdegree i)
    C(k,i) * (z*B_k)^i * (1 + z*B_k) / (1 - (k-1)*z*B_k)   (k-ary, outdegree i)

The plane one is computed as z^i C^(i-1) / (1 - 2zC), by two consequences
of C = 1 + z*C^2: C^2 = (C - 1)/z, which is C's coefficients read from
c_1 on, and 1 - z*C^2 = 2 - C = C(1 - 2zC). Odd i takes the power
(C^2)^((i-1)/2) over 1 - 2zC, and even i the power (C^2)^(i/2) over 2 - C,
so no power of C itself is formed. Each series is one power and one exact
quotient: O(N^2). The series functions
only compute. ``verify lagrange`` compares the derivative series with the
closed-form counts, and the powers of C and B_k with the power-coefficient
laws ``exact_math.catalan_power_coeff`` and ``exact_math.kary_power_coeff``;
``verify_kary_power_coeff`` compares one coefficient of a power of B_k
with its law.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index, mul
from typing import Iterable, Sequence

from .exact_math import binomial, exact_div, kary_power_coeff

__all__ = [
    "TruncatedSeries",
    "catalan_series",
    "kary_series",
    "verify_kary_power_coeff",
    "plane_derivative_series",
    "kary_derivative_series",
]


@dataclass(frozen=True, init=False)
class TruncatedSeries:
    """Integer power series modulo z^(N+1), N fixed at construction.

    Arithmetic is exact and closed at one truncation order; combining
    series of different orders raises instead of silently re-truncating.
    Coefficients must be integers (a float raises TypeError). Instances
    are immutable; equality and hashing work on ``coefficients``.
    """

    __slots__ = ("coefficients",)  # by hand: slots=True breaks frozen setattr
    coefficients: tuple[int, ...]

    def __init__(self, coefficients: Iterable[int]):
        coeffs = tuple(index(c) for c in coefficients)
        if not coeffs:
            raise ValueError("a truncated series needs at least the constant term")
        object.__setattr__(self, "coefficients", coeffs)

    def __reduce__(self):
        return TruncatedSeries, (self.coefficients,)

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    @classmethod
    def constant(cls, value: int, order: int) -> "TruncatedSeries":
        return cls((value,) + (0,) * order)

    def __getitem__(self, n: int) -> int:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} beyond truncation order {self.order}")
        return self.coefficients[n]

    def __repr__(self) -> str:
        return f"TruncatedSeries({list(self.coefficients)!r})"

    def _coerce(self, other: "TruncatedSeries | int") -> "TruncatedSeries":
        if isinstance(other, int):
            return TruncatedSeries.constant(other, self.order)
        if not isinstance(other, TruncatedSeries):
            raise TypeError(f"cannot combine TruncatedSeries with {type(other)!r}")
        if other.order != self.order:
            raise ValueError(
                f"truncation orders differ: {self.order} vs {other.order}"
            )
        return other

    def __add__(self, other: "TruncatedSeries | int") -> "TruncatedSeries":
        rhs = self._coerce(other)
        return TruncatedSeries(
            a + b for a, b in zip(self.coefficients, rhs.coefficients)
        )

    __radd__ = __add__

    def __sub__(self, other: "TruncatedSeries | int") -> "TruncatedSeries":
        rhs = self._coerce(other)
        return TruncatedSeries(
            a - b for a, b in zip(self.coefficients, rhs.coefficients)
        )

    def __rsub__(self, other: int) -> "TruncatedSeries":
        return self._coerce(other) - self

    def __mul__(self, other: "TruncatedSeries | int") -> "TruncatedSeries":
        if isinstance(other, int):
            return TruncatedSeries(other * c for c in self.coefficients)
        rhs = self._coerce(other)
        return TruncatedSeries(
            _product(self.coefficients, rhs.coefficients, self.order)
        )

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "TruncatedSeries":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        if not exponent:
            return TruncatedSeries.constant(1, self.order)
        # Square and multiply below the leading bit, which is ``self`` itself.
        result = self
        for bit in bin(exponent)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def shift(self, m: int) -> "TruncatedSeries":
        """Multiply by z^m, truncating at the same order."""
        if m < 0:
            raise ValueError("shift must be nonnegative")
        size = self.order + 1
        if m >= size:
            return TruncatedSeries.constant(0, self.order)
        return TruncatedSeries((0,) * m + self.coefficients[: size - m])


def _product(a: Sequence[int], b: Sequence[int], top: int) -> list[int]:
    """Coefficients 0..top of a*b; both sequences must reach index top."""
    return [sum(map(mul, a[: n + 1], b[n::-1])) for n in range(top + 1)]


def _self_convolution(a: Sequence[int], m: int) -> int:
    """sum_{j=0..m} a_j a_{m-j}, a reaching index m: the products with
    j < m - j once and doubled, plus the middle square when m is even."""
    half = (m + 1) // 2
    total = 2 * sum(map(mul, a[:half], a[m : m - half : -1]))
    if not m % 2:
        total += a[m // 2] ** 2
    return total


def _quotient(p: Sequence[int], q: Sequence[int], top: int) -> list[int]:
    """Coefficients 0..top of p/q, q_0 = 1: d_n = p_n - sum_{j=1..n} q_j d_{n-j}."""
    d: list[int] = []
    for n in range(top + 1):
        d.append(p[n] - sum(map(mul, q[1 : n + 1], reversed(d))))
    return d


def catalan_series(order: int) -> TruncatedSeries:
    """C(z) with C = 1 + z*C^2, via Segner's convolution c_n = sum c_j c_{n-1-j}."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    c = [1]
    for n in range(1, order + 1):
        c.append(_self_convolution(c, n - 1))
    return TruncatedSeries(c)


def kary_series(k: int, order: int) -> TruncatedSeries:
    """B_k(z) with B_k = (1 + z*B_k)^k and constant term 1.

    Coefficient n comes from Miller's power recurrence for (1 + z*B)^k
    (Knuth, TAOCP Vol. 2, 4.7), which only involves coefficients of B
    below n: n*b_n = sum_{j=1..n} ((k+1)j - n) * b_{j-1} * b_{n-j}. The
    terms j and n+1-j share a product, so averaging their weights gives
    the same sum as 2n*b_n = ((k-1)n + k + 1) * sum_j b_j b_{n-1-j}, a
    self-convolution with half the products; ``exact_div`` divides by 2n.
    O(order^2) operations. The defining equation itself is checked
    independently, by plain truncated multiplication, in
    ``verification._check_residuals``.
    """
    if k < 1:
        raise ValueError("arity must be at least 1")
    if order < 0:
        raise ValueError("order must be nonnegative")
    b = [1]
    for n in range(1, order + 1):
        total = ((k - 1) * n + k + 1) * _self_convolution(b, n - 1)
        b.append(exact_div(total, 2 * n, "Miller power recurrence"))
    return TruncatedSeries(b)


def verify_kary_power_coeff(k: int, n: int, l: int) -> tuple[int, int]:
    """[z^n] B_k(z)^l from the series and from ``exact_math.kary_power_coeff``,
    both returned; disagreement raises AssertionError."""
    closed_form = kary_power_coeff(k, n, l)
    series_value = (kary_series(k, n) ** l)[n]
    if series_value != closed_form:
        raise AssertionError(
            f"[z^{n}] B_{k}^{l}: series {series_value} != closed form {closed_form}"
        )
    return series_value, closed_form


def plane_derivative_series(i: int, order: int) -> TruncatedSeries:
    """Series whose coefficient n counts outdegree-i vertices over n-edge
    plane trees, z^i C^i / (1 - z*C^2) = sum_m z^(m+i) C^(2m+i).

    Since 1 - z*C^2 = 2 - C = C(1 - 2zC), this is z^i C^(i-1) / (1 - 2zC),
    and C^2 = (C - 1)/z is C's own coefficients shifted down by one. So
    odd i takes (C^2)^((i-1)/2) over 1 - 2zC, and even i (C^2)^(i/2) over
    2 - C: one power of C^2 and one exact quotient. Coefficient n >= 1
    equals C(2n - i - 1, n - 1) by Theorem 1; ``verify lagrange`` compares
    them.
    """
    if i < 0:
        raise ValueError("outdegree must be nonnegative")
    if order < 0:
        raise ValueError("order must be nonnegative")
    acc = [0] * (order + 1)
    if i <= order:
        top = order - i
        c = catalan_series(top + 1).coefficients
        if i % 2:
            denominator = [1, *(-2 * x for x in c[:top])]
        else:
            denominator = [1, *(-x for x in c[1 : top + 1])]
        numerator = TruncatedSeries(c[1:]) ** (i // 2)
        acc[i:] = _quotient(numerator.coefficients, denominator, top)
    return TruncatedSeries(acc)


def kary_derivative_series(k: int, i: int, order: int) -> TruncatedSeries:
    """Series whose coefficient n counts outdegree-i vertices over n-edge
    k-ary trees, built as C(k,i) (z*B_k)^i (1 + z*B_k) / (1 - (k-1)*z*B_k),
    which is C(k,i) sum_r (k-1)^r (z^(i+r) B_k^(i+r) + z^(i+r+1) B_k^(i+r+1)).

    One exact quotient. Coefficient n >= 1 equals C(k, i) * C(kn, n - i)
    by Theorem 2; ``verify lagrange`` compares them.
    """
    if k < 1:
        raise ValueError("arity must be at least 1")
    if not 0 <= i <= k:
        raise ValueError(f"outdegree must lie in 0..{k}")
    if order < 0:
        raise ValueError("order must be nonnegative")
    acc = [0] * (order + 1)
    if i <= order:
        top = order - i
        b = kary_series(k, top)
        numerator = _product((b ** i).coefficients, [1, *b.coefficients[:top]], top)
        denominator = [1, *(-(k - 1) * x for x in b.coefficients[:top])]
        acc[i:] = (binomial(k, i) * x for x in _quotient(numerator, denominator, top))
    return TruncatedSeries(acc)
