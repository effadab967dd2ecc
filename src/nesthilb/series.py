"""Truncated power series with exact coefficients.

Series2 is a bivariate series in q1, q2 truncated by total degree.
GradedPoly is a single-variable truncated polynomial used to carry a
formal (cohomological) grading through otherwise numeric computations.
Both store their coefficients as given: integer inputs stay integers, and
a Fraction appears only where a division (a rational exponent, a log, an
exp or a division by a constant term) makes one.  The Series2 constructor
is the one place that drops zero coefficients and terms past the cap;
every Series2 operation builds its result through it.
"""

from __future__ import annotations

from fractions import Fraction


class Series2:
    """Bivariate power series, terms q1^d1 q2^d2 with d1 + d2 <= cap."""

    __slots__ = ("cap", "terms")

    def __init__(self, cap, terms=None):
        if cap < 0:
            raise ValueError("cap must be nonnegative")
        terms = terms or {}
        if any(d1 < 0 or d2 < 0 for d1, d2 in terms):
            raise ValueError("series exponents must be nonnegative")
        self.cap = int(cap)
        self.terms = {(d1, d2): c for (d1, d2), c in terms.items() if c and d1 + d2 <= cap}

    @classmethod
    def one(cls, cap):
        return cls(cap, {(0, 0): 1})

    @classmethod
    def zero(cls, cap):
        return cls(cap)

    def coeff(self, d1, d2):
        return self.terms.get((d1, d2), 0)

    def constant_term(self):
        return self.coeff(0, 0)

    def __eq__(self, other):
        if isinstance(other, Series2):
            return self.cap == other.cap and self.terms == other.terms
        return NotImplemented

    def __add__(self, other):
        terms = dict(self.terms)
        for k, v in other.terms.items():
            terms[k] = terms.get(k, 0) + v
        return Series2(min(self.cap, other.cap), terms)

    def __neg__(self):
        return Series2(self.cap, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Series2(self.cap, {k: v * other for k, v in self.terms.items()})
        cap = min(self.cap, other.cap)
        terms = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                d1, d2 = a1 + a2, b1 + b2
                if d1 + d2 > cap:
                    continue
                terms[d1, d2] = terms.get((d1, d2), 0) + c1 * c2
        return Series2(cap, terms)

    __rmul__ = __mul__

    def log(self):
        """log(s) for a series with constant term 1."""
        if self.constant_term() != 1:
            raise ValueError("non-unit series power")
        x = self - Series2.one(self.cap)
        # log(1+x) = sum (-1)^(k-1) x^k / k; x has positive valuation.
        result = Series2.zero(self.cap)
        power = Series2.one(self.cap)
        for k in range(1, self.cap + 1):
            power = power * x
            if not power.terms:
                break
            result = result + power * Fraction((-1) ** (k - 1), k)
        return result

    def exp(self):
        """exp(s) for a series with constant term 0."""
        if self.constant_term() != 0:
            raise ValueError("exp requires zero constant term")
        result = Series2.one(self.cap)
        power = Series2.one(self.cap)
        fact = 1
        for k in range(1, self.cap + 1):
            power = power * self
            if not power.terms:
                break
            fact *= k
            result = result + power * Fraction(1, fact)
        return result

    def pow(self, r):
        """s^r for rational r, requiring constant term 1."""
        if self.constant_term() != 1:
            raise ValueError("non-unit series power")
        r = Fraction(r)
        if r == 0:
            return Series2.one(self.cap)
        if r.denominator == 1 and abs(r) <= self.cap + 1:
            n = r.numerator
            base = self if n > 0 else self.inverse()
            result = Series2.one(self.cap)
            for _ in range(abs(n)):
                result = result * base
            return result
        return (self.log() * r).exp()

    def inverse(self):
        """1/s for a series with constant term 1, via 1/(1+x) = sum (-x)^k."""
        if self.constant_term() != 1:
            raise ValueError("non-unit series power")
        x = self - Series2.one(self.cap)
        result = Series2.one(self.cap)
        power = Series2.one(self.cap)
        sign = 1
        for _ in range(self.cap):
            power = power * x
            sign = -sign
            if not power.terms:
                break
            result = result + power * sign
        return result

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (d1, d2), c in sorted(self.terms.items(), key=lambda kv: (kv[0][0] + kv[0][1], kv[0])):
            mono = []
            if d1:
                mono.append(f"q1^{d1}" if d1 != 1 else "q1")
            if d2:
                mono.append(f"q2^{d2}" if d2 != 1 else "q2")
            if not mono:
                bits.append(str(c))
            else:
                bits.append((f"{c}*" if c != 1 else "") + "*".join(mono))
        return " + ".join(bits)


def binomial_factor_series(d1, d2, r, cap):
    """(1 - q1^d1 q2^d2)^r truncated by total degree, r rational."""
    coeffs = linear_power(-1, r, cap // (d1 + d2)).coeffs
    return Series2(cap, {(k * d1, k * d2): c for k, c in enumerate(coeffs)})


def product_formula(factors, cap):
    """Truncated product of families of binomial factors.

    Each entry of `factors` is ((d1, d2), r): it contributes the product
    over n >= 1 of (1 - q1^(d1+n-1) q2^(d2+n-1))^r, i.e. the base monomial
    pushed along the diagonal.  Factors whose monomial exceeds the cap are
    dropped, which is exact for a total-degree truncation.
    """
    result = Series2.one(cap)
    for (d1, d2), r in factors:
        if d1 + d2 <= 0:
            raise ValueError("factor monomials must have positive total degree")
        if r == 0:
            continue
        for n in range((cap - d1 - d2) // 2 + 1):
            result = result * binomial_factor_series(d1 + n, d2 + n, r, cap)
    return result


class GradedPoly:
    """Truncated polynomial in one formal grading variable.

    coeffs[k] is the (int or Fraction) coefficient in degree k; degrees
    above cap are discarded.
    """

    __slots__ = ("cap", "coeffs")

    def __init__(self, cap, coeffs=None):
        self.cap = int(cap)
        cs = list(coeffs or ())[: self.cap + 1]
        self.coeffs = cs + [0] * (self.cap + 1 - len(cs))

    @classmethod
    def one(cls, cap):
        return cls(cap, [1])

    def __eq__(self, other):
        if isinstance(other, GradedPoly):
            return self.cap == other.cap and self.coeffs == other.coeffs
        return NotImplemented

    def __add__(self, other):
        cap = min(self.cap, other.cap)
        return GradedPoly(cap, [self.coeffs[k] + other.coeffs[k] for k in range(cap + 1)])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return GradedPoly(self.cap, [c * other for c in self.coeffs])
        cap = min(self.cap, other.cap)
        out = [0] * (cap + 1)
        for i, a in enumerate(self.coeffs[: cap + 1]):
            if not a:
                continue
            for j, b in enumerate(other.coeffs[: cap + 1 - i]):
                if b:
                    out[i + j] += a * b
        return GradedPoly(cap, out)

    __rmul__ = __mul__

    def divide(self, other):
        """Division in the truncated ring; divisor needs a unit constant term."""
        if other.coeffs[0] == 0:
            raise ValueError("division requires unit constant term")
        cap = min(self.cap, other.cap)
        inv0 = Fraction(1, other.coeffs[0])
        out = [0] * (cap + 1)
        for k in range(cap + 1):
            acc = self.coeffs[k]
            for j in range(1, k + 1):
                acc -= other.coeffs[j] * out[k - j]
            out[k] = acc * inv0
        return GradedPoly(cap, out)

    def __repr__(self):
        return "GradedPoly(" + ", ".join(str(c) for c in self.coeffs) + ")"


def linear_power(weight, mult, cap):
    """(1 + weight * g)^mult truncated at cap, C(mult, k) weight^k in degree k:
    an integer mult, negative included, takes the exact integer recurrence
    C(mult, k) = C(mult, k - 1) (mult - k + 1) / k, a Fraction mult takes it
    over Fraction."""
    coeffs, binomial = [1], 1
    for k in range(1, cap + 1):
        if isinstance(mult, int):
            binomial = binomial * (mult - k + 1) // k
        else:
            binomial *= Fraction(mult - k + 1, k)
        coeffs.append(binomial * weight**k)
    return GradedPoly(cap, coeffs)
