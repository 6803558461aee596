"""Closed-form vertex counts for plane and k-ary trees, in exact integers.

Every count is a plain Python ``int`` (arbitrary precision), so nothing
overflows and no floating point is involved. Binomial coefficients follow
the vanishing convention C(n, m) = 0 for m < 0, n < 0 or m > n; the finite
sums below rely on that convention to terminate.

Divisions only appear inside identities that are exact over the integers;
each raises instead of rounding (:func:`exact_div`, or the same divmod done
in line by :func:`count_odd_outdegree`), so an algebra mistake fails loudly.
"""

import math
from collections.abc import Iterator, Sequence

from ._limits import SEQUENCE_GUARD, check_guard

__all__ = [
    "exact_div",
    "binomial",
    "catalan",
    "count_plane_outdegree",
    "count_kary_outdegree",
    "count_plane_degree",
    "catalan_power_coeff",
    "kary_power_coeff",
    "fine_number",
    "count_odd_outdegree",
    "outdegree_type_sum",
    "verify_outdegree_sequence_identity",
]


def exact_div(numerator: int, denominator: int, label: str = "quotient") -> int:
    """Divide two integers, raising if the division is not exact."""
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise AssertionError(
            f"{label}: {numerator} is not divisible by {denominator}"
        )
    return quotient


def binomial(n: int, m: int) -> int:
    """C(n, m), with value 0 whenever m < 0, n < 0 or m > n."""
    if m < 0 or n < 0 or m > n:
        return 0
    return math.comb(n, m)


def _multinomial(parts: Sequence[int]) -> int:
    # sum(parts)! / prod(p!) for nonnegative parts, as a product of binomials;
    # a zero part contributes C(consumed, 0) = 1 and is skipped.
    result = 1
    consumed = 0
    for p in filter(None, parts):
        consumed += p
        result *= math.comb(consumed, p)
    return result


def catalan(n: int) -> int:
    """Number of plane trees with n edges: C(2n, n) / (n + 1)."""
    if n < 0:
        raise ValueError("catalan index must be nonnegative")
    return exact_div(math.comb(2 * n, n), n + 1, "catalan")


def count_plane_outdegree(n: int, i: int) -> int:
    """Total number of outdegree-i vertices over all plane trees with n edges.

    Equals C(2n - i - 1, n - 1); in particular 0 once i > n.
    """
    if n < 1:
        raise ValueError("edge count must be at least 1")
    if i < 0:
        raise ValueError("outdegree must be nonnegative")
    return binomial(2 * n - i - 1, n - 1)


def count_kary_outdegree(n: int, k: int, i: int) -> int:
    """Total number of outdegree-i vertices over all k-ary trees with n edges.

    Equals C(k, i) * C(kn, n - i); vanishes once i > k or i > n.
    """
    if n < 1 or k < 1:
        raise ValueError("edge count and arity must be at least 1")
    if i < 0:
        raise ValueError("outdegree must be nonnegative")
    return binomial(k, i) * binomial(k * n, n - i)


def count_plane_degree(n: int, i: int) -> int:
    """Total number of degree-i vertices over all plane trees with n edges.

    Degree counts adjacent vertices: at the root it equals the outdegree,
    elsewhere outdegree + 1. The count is exactly twice the outdegree
    count: 2 * C(2n - i - 1, n - 1).
    """
    if n < 1:
        raise ValueError("edge count must be at least 1")
    if i < 1:
        raise ValueError("degree must be at least 1")
    return 2 * count_plane_outdegree(n, i)


def catalan_power_coeff(n: int, l: int) -> int:
    """[z^n] C(z)^l = l/(2n+l) * C(2n+l, n), for n >= 0 and l >= 1."""
    if l < 1:
        raise ValueError("power must be at least 1")
    if n < 0:
        raise ValueError("coefficient index must be nonnegative")
    return exact_div(l * binomial(2 * n + l, n), 2 * n + l, "catalan power coefficient")


def kary_power_coeff(k: int, n: int, l: int) -> int:
    """[z^n] B_k(z)^l = l/(n+l) * C(k(n+l), n), for n >= 0 and k, l >= 1.

    This is the corrected law: the naive l/n * C(kn, n) is wrong already
    at k=2, n=2, l=1.
    """
    if k < 1 or l < 1:
        raise ValueError("arity and power must be at least 1")
    if n < 0:
        raise ValueError("coefficient index must be nonnegative")
    return exact_div(l * binomial(k * (n + l), n), n + l, "k-ary power coefficient")


def fine_number(n: int) -> int:
    """Fine number F_n, normalized so that F_0 = 1, F_1 = 0, F_2 = 1, F_3 = 2.

    Computed by the Fine recurrence 2*F_m + F_{m-1} = C_m (Deutsch and
    Shapiro, "A survey of the Fine numbers", Discrete Math. 2001), with the
    Catalan number C_m carried along as C_m = 2(2m-1)/(m+1) * C_{m-1};
    both divisions go through :func:`exact_div`. O(n) operations. This
    indexing is shifted relative to some references, which start the
    sequence 1, 1, 0, 2, 6, ...: here F_{n-1} pairs with plane trees that
    have n edges, through 3 * count_odd_outdegree(n) = 2*C(2n-1, n) + F_{n-1},
    which ``verify fine`` checks.
    """
    if n < 0:
        raise ValueError("fine number index must be nonnegative")
    value = catalan_m = 1
    for m in range(1, n + 1):
        catalan_m = exact_div(2 * (2 * m - 1) * catalan_m, m + 1, "catalan step")
        value = exact_div(catalan_m - value, 2, "fine recurrence")
    return value


def count_odd_outdegree(n: int) -> int:
    """Total number of odd-outdegree vertices over all plane trees with n edges.

    Computed as the odd column of :func:`count_plane_outdegree`, walked
    from the largest odd i <= n down to i = 1, so from the smallest term,
    C(n-1, n-1) or C(n, n-1), up. Each step i -> i - 2 is the exact ratio
    (2n-i+1)(2n-i) / ((n-i+2)(n-i+1)), the two small factors multiplied
    before they meet the big term, by one divmod in line that raises on a
    remainder as :func:`exact_div` does. The Fine relation 3 * odd(n) =
    2*C(2n-1, n) + F_{n-1} is checked by ``verify fine``.
    """
    if n < 1:
        raise ValueError("edge count must be at least 1")
    top = n if n % 2 else n - 1
    total = term = count_plane_outdegree(n, top)
    for i in range(top, 1, -2):
        num = term * ((2 * n - i + 1) * (2 * n - i))
        den = (n - i + 2) * (n - i + 1)
        term, remainder = divmod(num, den)
        if remainder:
            raise AssertionError(f"odd-column ratio step: {num} is not divisible by {den}")
        total += term
    return total


def _outdegree_type_vectors(n: int, i: int) -> Iterator[tuple[int, ...]]:
    # The (r_0, ..., r_n) with sum r_j = n + 1, sum j*r_j = n and r_i >= 1, for
    # n >= 1 and 0 <= i <= n. With one outdegree-i vertex set aside, an odometer
    # runs r_n, ..., r_2 (r_2 fastest) of the other n vertices through every
    # weight sum_{j>=2} j*r_j <= n - i; r_1 takes the rest of the weight and r_0
    # the rest of the count. Each yield adds the set-aside vertex back to r_i.
    vec = [0] * (n + 1)
    rest, used = n - i, 0
    while True:
        vec[0], vec[1] = n - used - rest, rest
        vec[i] += 1
        yield tuple(vec)
        vec[i] -= 1
        j = 2
        while j <= n and rest < j:
            rest += j * vec[j]
            used -= vec[j]
            vec[j] = 0
            j += 1
        if j > n:
            return
        vec[j] += 1
        rest -= j
        used += 1


def outdegree_type_sum(n: int, i: int) -> int:
    """Sum of r_i * multinomial(n+1; r_0, ..., r_n) / (n+1), each division
    exact and asserted, over the outdegree type vectors of n-edge plane trees:
    the left side of the outdegree-type identity (``verify identity1``). It
    walks only the p(n - i) vectors with r_i >= 1, and is 0 once i > n.
    """
    if n < 1:
        raise ValueError("edge count must be at least 1")
    if i < 0:
        raise ValueError("outdegree must be nonnegative")
    check_guard(SEQUENCE_GUARD, n)
    if i > n:
        return 0
    total = 0
    for vec in _outdegree_type_vectors(n, i):
        total += exact_div(vec[i] * _multinomial(vec), n + 1, "outdegree-type term")
    return total


def verify_outdegree_sequence_identity(n: int, i: int) -> tuple[int, int]:
    """Both sides of the outdegree-type identity for cell (n, i); a mismatch
    raises AssertionError."""
    lhs = outdegree_type_sum(n, i)
    rhs = count_plane_outdegree(n, i)
    if lhs != rhs:
        raise AssertionError(
            f"outdegree-type identity fails at n={n}, i={i}: {lhs} != {rhs}"
        )
    return lhs, rhs
