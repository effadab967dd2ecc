"""Bivariate Laurent polynomials with exact coefficients.

Exponent pairs (a, b) index monomials t1^a t2^b.  Coefficients are stored
as given, so integer polynomials stay integer; a Fraction appears only
where a division makes one.  The constructor is the one place that drops
zero coefficients; every operation builds its result through it, so
structural equality of the term dictionaries is mathematical equality.
"""

from __future__ import annotations

from fractions import Fraction


class LaurentPoly:
    """A finite sum of terms c * t1^a * t2^b with c a nonzero int or Fraction."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {exps: c for exps, c in (terms or {}).items() if c}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({(0, 0): 1})

    @classmethod
    def monomial(cls, a, b, coeff=1):
        return cls({(a, b): coeff})

    @classmethod
    def constant(cls, c):
        return cls({(0, 0): c})

    # -- ring structure ----------------------------------------------------

    def __add__(self, other):
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            terms[exps] = terms.get(exps, 0) + coeff
        return LaurentPoly(terms)

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            return LaurentPoly({e: other * v for e, v in self.terms.items()})
        terms = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                key = (a1 + a2, b1 + b2)
                terms[key] = terms.get(key, 0) + c1 * c2
        return LaurentPoly(terms)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == LaurentPoly.constant(other)
        return NotImplemented

    def __bool__(self):
        return bool(self.terms)

    # -- involutions and substitutions -------------------------------------

    def bar(self):
        """Invert both variables: t1 -> 1/t1, t2 -> 1/t2."""
        return LaurentPoly({(-a, -b): c for (a, b), c in self.terms.items()})

    def shift(self, m):
        """Multiply by the monomial t1^m[0] t2^m[1]."""
        da, db = m
        return LaurentPoly({(a + da, b + db): c for (a, b), c in self.terms.items()})

    def substitute(self, u, v):
        """Monomial substitution t1 -> t^u, t2 -> t^v for lattice vectors u, v."""
        terms = {}
        for (a, b), c in self.terms.items():
            key = (a * u[0] + b * v[0], a * u[1] + b * v[1])
            terms[key] = terms.get(key, 0) + c
        return LaurentPoly(terms)

    # -- evaluation --------------------------------------------------------

    def rank(self):
        """Sum of all coefficients, i.e. the value at t1 = t2 = 1."""
        return sum(self.terms.values())

    def coeff(self, a, b):
        return self.terms.get((a, b), 0)

    def divide_exact(self, divisor):
        """Exact division by a nonzero LaurentPoly, lex-least terms first.

        Lex order is compatible with multiplication of monomials, so an
        exact quotient's lex-greatest exponent is max(self) - max(divisor);
        a quotient term beyond it means the division is not exact, and
        raises ValueError.  An integral quotient coefficient stays an int.
        """
        if not divisor.terms:
            raise ZeroDivisionError("division by zero polynomial")
        if not self.terms:
            return LaurentPoly.zero()
        lead = min(divisor.terms)
        lead_c = divisor.terms[lead]
        top, dtop = max(self.terms), max(divisor.terms)
        last = (top[0] - dtop[0], top[1] - dtop[1])
        # reduced in place: a new polynomial per quotient term dominated `verify oracle`
        remainder = dict(self.terms)
        quotient = {}
        while remainder:
            e = min(remainder)
            q = (e[0] - lead[0], e[1] - lead[1])
            if q > last:
                raise ValueError("division is not exact")
            c = Fraction(remainder[e], lead_c)
            quotient[q] = c = c.numerator if c.denominator == 1 else c
            for (a, b), d in divisor.terms.items():
                key = (a + q[0], b + q[1])
                new = remainder.get(key, 0) - c * d
                if new:
                    remainder[key] = new
                else:
                    del remainder[key]
        return LaurentPoly(quotient)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (a, b), c in sorted(self.terms.items()):
            mono = []
            if a:
                mono.append(f"t1^{a}" if a != 1 else "t1")
            if b:
                mono.append(f"t2^{b}" if b != 1 else "t2")
            if not mono:
                bits.append(str(c))
            elif c == 1:
                bits.append("*".join(mono))
            else:
                bits.append(f"{c}*" + "*".join(mono))
        return " + ".join(bits)
