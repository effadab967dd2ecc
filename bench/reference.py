"""Closed-form reference values, computed without importing nesthilb.

The benchmark checks the CLI against these numbers, so they come from a
separate derivation: intersection numbers from the toric self-intersection
rule (r[i-1] + r[i+1] = b_i r[i] gives D_i^2 = -b_i, adjacent divisors
meet once, all others are disjoint), and the closed product expanded in
plain integer arithmetic.
"""

from __future__ import annotations


def intersection_form(rays):
    """The matrix D_i . D_j of the torus-invariant divisors of a smooth fan."""
    n = len(rays)
    if n < 3:
        raise ValueError("need at least three rays")
    form = [[0] * n for _ in range(n)]
    for i in range(n):
        (px, py), (cx, cy), (nx, ny) = rays[i - 1], rays[i], rays[(i + 1) % n]
        sx, sy = px + nx, py + ny
        if sx * cy - sy * cx:
            raise ValueError(f"neighbours of ray {i} do not sum to a multiple of it")
        b, rem = divmod(sx * cx + sy * cy, cx * cx + cy * cy)
        if rem:
            raise ValueError(f"ray {i} is not primitive")
        form[i][i] = -b
        form[i][(i + 1) % n] = form[(i + 1) % n][i] = 1
    return form


def _pair(form, a, c):
    return sum(a[i] * form[i][j] * c[j] for i in range(len(a)) for j in range(len(c)))


def _mul(s, t, cap):
    out = {}
    for (a1, b1), x in s.items():
        for (a2, b2), y in t.items():
            if a1 + a2 + b1 + b2 <= cap:
                key = (a1 + a2, b1 + b2)
                out[key] = out.get(key, 0) + x * y
    return out


def _binomial_power(d1, d2, r, cap):
    """(1 - q1^d1 q2^d2)^r truncated at total degree cap, r any integer."""
    out = {(0, 0): 1}
    coeff, k = 1, 0
    while (k + 1) * (d1 + d2) <= cap:
        k += 1
        coeff, rem = divmod(coeff * (r - k + 1), k)
        if rem:
            raise ArithmeticError("non-integral binomial coefficient")
        if not coeff:
            break
        out[(k * d1, k * d2)] = coeff * (-1) ** k
    return out


def closed_form(rays, coeffs, cap):
    """Coefficients {(n1, n2): int} of the closed product for O(sum a_i D_i).

    prod_{n>0} (1 - q1^n q2^(n-1))^(K.(K-M)) (1 - (q1 q2)^n)^((K-M).M - e),
    each coefficient multiplied by (-1)^(n1+n2); only n1 >= n2 is kept.
    """
    form = intersection_form(rays)
    canonical = [-1] * len(rays)
    m_sq = _pair(form, coeffs, coeffs)
    m_k = _pair(form, coeffs, canonical)
    k_sq = _pair(form, canonical, canonical)
    a = k_sq - m_k
    b = m_k - m_sq - len(rays)
    series = {(0, 0): 1}
    for n in range(1, cap + 1):
        if 2 * n - 1 <= cap:
            series = _mul(series, _binomial_power(n, n - 1, a, cap), cap)
        if 2 * n <= cap:
            series = _mul(series, _binomial_power(n, n, b, cap), cap)
    return {
        (n1, n2): series.get((n1, n2), 0) * (-1) ** (n1 + n2)
        for n1 in range(cap + 1)
        for n2 in range(min(n1, cap - n1) + 1)
    }
