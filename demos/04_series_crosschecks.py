"""Re-deriving the counts from generating functions, in exact integers.

The tree series satisfy C = 1 + z*C^2 and B_k = (1 + z*B_k)^k. Marking
vertices of outdegree i and differentiating collapses to shifted powers of
the same series, so the counts can be recomputed by pure coefficient
arithmetic and compared against the binomial formulas, coefficient by
coefficient.
"""

from treedegree import (
    binomial,
    catalan_power_coeff,
    catalan_series,
    count_kary_outdegree,
    count_plane_outdegree,
    kary_derivative_series,
    kary_series,
    plane_derivative_series,
    verify_kary_power_coeff,
)

N = 12

c = catalan_series(N)
print("C(z) coefficients:", list(c.coefficients))
residual = c - (1 + (c * c).shift(1))
print("C - 1 - z*C^2 residual:", list(residual.coefficients))

b3 = kary_series(3, 8)
print()
print("B_3(z) coefficients:", list(b3.coefficients))

print()
print("power-coefficient laws (series value vs closed form):")
for n, l in [(2, 1), (3, 2), (5, 4)]:
    print(f"  [z^{n}] C^{l}  -> {((catalan_series(n) ** l)[n], catalan_power_coeff(n, l))}")
for k, n, l in [(2, 2, 1), (3, 4, 2), (4, 3, 3)]:
    print(f"  [z^{n}] B_{k}^{l} -> {verify_kary_power_coeff(k, n, l)}")

print()
print("the naive k-ary law l/n * C(kn, n) is wrong; at k=2, n=2, l=1:")
series_value = kary_series(2, 2)[2]
print(f"  series coefficient = {series_value}")
print(f"  naive value        = {binomial(4, 2)}/2 = 3  (cross-multiplied: {2*series_value} != {binomial(4,2)})")
print(f"  corrected value    = 1/3 * C(6, 2) = {binomial(6, 2) // 3}")

print()
print("derivative-at-1 slices reproduce the vertex counts:")
for i in (0, 1, 2):
    series = plane_derivative_series(i, N)
    closed = [count_plane_outdegree(n, i) for n in range(1, N + 1)]
    assert list(series.coefficients[1:]) == closed
    print(f"  plane, i={i}: {closed}")
for k, i in [(2, 1), (3, 2)]:
    series = kary_derivative_series(k, i, 8)
    closed = [count_kary_outdegree(n, k, i) for n in range(1, 9)]
    assert list(series.coefficients[1:]) == closed
    print(f"  k={k},  i={i}: {closed}")
