"""Exact multivariate polynomial and Laurent-polynomial arithmetic over Q.

Monomials are exponent tuples over a fixed variable list; polynomials are
sparse dicts monomial -> rational.  Everything is exact: no floats anywhere.

A rational is stored as an `int` when it is integral and as a `Fraction`
otherwise.  Both are exact and compare and hash equal, so the choice never
changes an answer; it keeps the common, integral case off `Fraction`'s pure
Python arithmetic (small integers inline, as in FLINT's fmpz).  The one
hazard is `/` between two ints, which returns a float: every division of
two rationals goes through `Fraction`.

Coefficients of multigraded objects are homogeneous in the fine Z^n grading,
and a homogeneous element of the fraction field is a rational times a Laurent
monomial.  So the only quotients kept here are Laurent polynomials: a
polynomial over a monic monomial denominator.  Dividing by anything else
raises ValueError.

Only this module tells a `Polynomial` coefficient from a `RationalFunction`:
other modules ask the questions both answer (`is_polynomial`,
`as_polynomial`, `is_monomial`, `lead_coeff`, `exponents`), coerce a
scalar with `laurent`, or build a Laurent monomial with `laurent_term`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import gcd as int_gcd
from operator import add, le, sub
from typing import Iterable


# ---------- exponent-tuple (monomial / multidegree) helpers ----------

# Each kernel maps an operator over the two tuples: 0.4-0.7 times the cost
# of a generator over zip on 20 generators, for the same result.

def mono_mul(a: tuple, b: tuple) -> tuple:
    return tuple(map(add, a, b))


def mono_divides(a: tuple, b: tuple) -> bool:
    """True if monomial a divides monomial b (componentwise <=)."""
    return all(map(le, a, b))


# bit i of a support mask, for tuples of up to 1024 entries
_BITS = tuple(1 << i for i in range(1024))


def mono_mask(a: tuple) -> int:
    """Support bitmask: bit i is set when a[i] is nonzero.  If a divides b
    then mono_mask(a) & ~mono_mask(b) == 0, so a mask test rejects most
    non-divisors before `mono_divides` (Bachmann & Schoenemann's short
    exponent vectors, ISSAC 1998).  The bits of the nonzero entries are
    distinct, so their sum is their OR, and `compress` picks them in C."""
    if len(a) > len(_BITS):
        return sum(1 << i for i, e in enumerate(a) if e)
    return sum(compress(_BITS, a))


def mono_div(b: tuple, a: tuple) -> tuple:
    """b / a, assuming a | b."""
    return tuple(map(sub, b, a))


def mono_lcm(a: tuple, b: tuple) -> tuple:
    return tuple(map(max, a, b))


def mono_gcd(a: tuple, b: tuple) -> tuple:
    return tuple(map(min, a, b))


def mono_deg(a: tuple) -> int:
    return sum(a)


def rational(q):
    """The rational q (an int, a Fraction, or anything `Fraction` reads) as
    a coefficient: an int when integral, a Fraction otherwise.  A float is
    refused with a TypeError: its binary expansion is not the rational it
    was meant to be (0.1 would become 3602879701896397/36028797018963968)."""
    if type(q) is int:
        return q
    if isinstance(q, float):
        raise TypeError(f"a coefficient must be an exact rational, not the "
                        f"float {q!r}")
    if type(q) is not Fraction:
        q = Fraction(q)
    return q.numerator if q.denominator == 1 else q


def add_term(terms: dict, key, value) -> None:
    """Add the ring element `value` into terms[key] in place; drop the key
    when the sum is zero.  Every sparse ring-valued combination uses this."""
    prev = terms.get(key)
    if prev is not None:
        value = prev + value
    if value.is_zero():
        terms.pop(key, None)
    else:
        terms[key] = value


class Ring:
    """A polynomial ring Q[x1..xn], fixed variable names in order."""

    def __init__(self, variables: Iterable[str]):
        self.variables = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable names")
        self.nvars = len(self.variables)
        self.zero_mono = (0,) * self.nvars
        self._var_index = {v: i for i, v in enumerate(self.variables)}
        self.zero = Polynomial(self, {})
        self.one = Polynomial(self, {self.zero_mono: 1})

    def var(self, name: str) -> "Polynomial":
        i = self._var_index[name]
        mono = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Polynomial(self, {mono: 1})

    def monomial(self, expts: tuple, coeff=1) -> "Polynomial":
        if len(expts) != self.nvars:
            raise ValueError("wrong exponent length")
        c = rational(coeff)
        if not c:
            return self.zero
        return Polynomial(self, {tuple(expts): c})

    def const(self, c) -> "Polynomial":
        return self.monomial(self.zero_mono, c)

    def __eq__(self, other):
        return isinstance(other, Ring) and self.variables == other.variables

    def __hash__(self):
        return hash(self.variables)

    def __repr__(self):
        return f"Ring({', '.join(self.variables)})"


class Polynomial:
    """Immutable sparse polynomial with rational (`int` or `Fraction`)
    coefficients."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: Ring, terms: dict):
        self.ring = ring
        self.terms = terms
        self._hash = None

    # -- basics --

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return len(self.terms) == 1 and self.terms.get(self.ring.zero_mono) == 1

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.ring.zero_mono in self.terms)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def is_polynomial(self) -> bool:
        return True

    def as_polynomial(self) -> "Polynomial":
        return self

    def exponents(self) -> list:
        return list(self.terms)

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("not a constant")
        return self.terms.get(self.ring.zero_mono, 0)

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(mono_deg(m) for m in self.terms)

    def lead_mono(self) -> tuple:
        """Leading monomial w.r.t. lex (first variable dominant)."""
        if not self.terms:
            raise ValueError("zero polynomial has no lead monomial")
        return max(self.terms)

    def lead_coeff(self):
        return self.terms[self.lead_mono()]

    def multidegree(self):
        """The common exponent tuple if every term has it; None if inhomogeneous.

        A polynomial of a single term is always multihomogeneous; used for
        multigraded sanity checks."""
        monos = set(self.terms)
        if len(monos) == 1:
            return next(iter(monos))
        return None

    # -- arithmetic --

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m, 0) + c
            if s:
                terms[m] = s
            elif m in terms:
                del terms[m]
        return Polynomial(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.terms or not other.terms:
            return self.ring.zero
        # fast path: monomial factor
        if len(self.terms) == 1:
            (m1, c1), = self.terms.items()
            return Polynomial(self.ring, {mono_mul(m1, m2): c1 * c2
                                          for m2, c2 in other.terms.items()})
        if len(other.terms) == 1:
            return other * self
        terms: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                s = terms.get(m, 0) + c1 * c2
                if s:
                    terms[m] = s
                elif m in terms:
                    del terms[m]
        return Polynomial(self.ring, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = self.ring.one
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def _coerce(self, other):
        if type(other) is Polynomial and other.ring is self.ring:
            return other
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                return NotImplemented
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        return NotImplemented

    def scale(self, c) -> "Polynomial":
        c = rational(c)
        if not c:
            return self.ring.zero
        return Polynomial(self.ring, {m: c * v for m, v in self.terms.items()})

    # -- comparisons / hashing --

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring.variables, frozenset(self.terms.items())))
        return self._hash

    # -- display --

    def sorted_terms(self):
        """Terms in descending lex order: canonical print order."""
        return sorted(self.terms.items(), key=lambda t: t[0], reverse=True)

    def __str__(self):
        return format_polynomial(self)

    def __repr__(self):
        return f"<poly {self}>"

    # -- content / primitive part --

    def rational_content(self) -> Fraction:
        """Positive rational c with self/c integer-primitive; sign follows lead."""
        if not self.terms:
            return Fraction(0)
        num = 0
        den = 1
        for c in self.terms.values():
            num = int_gcd(num, c.numerator)
            den = den * c.denominator // int_gcd(den, c.denominator)
        content = Fraction(num, den)
        if self.lead_coeff() < 0:
            content = -content
        return content

    def primitive(self) -> "Polynomial":
        if self.is_zero():
            return self
        return self.scale(1 / self.rational_content())


def format_mono(ring: Ring, mono: tuple) -> str:
    parts = []
    for v, e in zip(ring.variables, mono):
        if e == 1:
            parts.append(v)
        elif e > 1:
            parts.append(f"{v}^{e}")
    return "*".join(parts)


def format_coeff(c) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


def format_polynomial(p: Polynomial) -> str:
    if p.is_zero():
        return "0"
    out = []
    for i, (m, c) in enumerate(p.sorted_terms()):
        neg = c < 0
        ac = -c if neg else c
        ms = format_mono(p.ring, m)
        if not ms:
            body = format_coeff(ac)
        elif ac == 1:
            body = ms
        else:
            body = f"{format_coeff(ac)}*{ms}"
        if i == 0:
            out.append(("-" if neg else "") + body)
        else:
            out.append(("- " if neg else "+ ") + body)
    return " ".join(out)


# ---------- monomial gcd ----------

def mono_gcd_of_support(p: Polynomial) -> tuple:
    it = iter(p.terms)
    acc = next(it)
    for m in it:
        acc = mono_gcd(acc, m)
    return acc


def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Gcd of two polynomials at least one of which is a monomial: the monic
    monomial gcd of their supports.  With one argument zero, the primitive
    part of the other.

    Coefficients are Laurent polynomials (see `RationalFunction`), so no
    caller needs the gcd of two polynomials that both have several terms;
    that case raises ValueError."""
    if f.is_zero():
        return g.primitive()
    if g.is_zero():
        return f.primitive()
    if not (f.is_monomial() or g.is_monomial()):
        raise ValueError(f"gcd of two non-monomials ({f}, {g}) is not supported")
    common = mono_gcd(mono_gcd_of_support(f), mono_gcd_of_support(g))
    return Polynomial(f.ring, {common: 1})


class RationalFunction:
    """Laurent polynomial: a polynomial numerator over a monomial denominator,
    normalized so that the two have no common monomial factor and the
    denominator is monic.

    A denominator that is not a monomial, including one produced by
    `inverse()` or division, raises ValueError."""

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial | None = None, _normalized=False):
        if den is None:
            den = num.ring.one
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if not _normalized:
            num, den = _rf_normalize(num, den)
        self.num = num
        self.den = den

    @property
    def ring(self):
        return self.num.ring

    def is_zero(self):
        return self.num.is_zero()

    def is_one(self):
        return self.num.is_one() and self.den.is_one()

    def is_polynomial(self):
        return self.den.is_one()

    def as_polynomial(self) -> Polynomial:
        if not self.den.is_one():
            raise ValueError(f"not a polynomial: {self}")
        return self.num

    def is_monomial(self) -> bool:
        return self.num.is_monomial()

    def lead_coeff(self):
        return self.num.lead_coeff()

    def exponents(self) -> list:
        """Exponent tuples of the terms, the denominator counted negatively:
        (x*y - 1)/x gives (0, 1) and (-1, 0)."""
        d = self.den.lead_mono()
        return [mono_div(m, d) for m in self.num.terms]

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, Polynomial):
            return RationalFunction(other)
        if isinstance(other, (int, Fraction)):
            return RationalFunction(self.ring.const(other))
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den.is_one() and other.den.is_one():
            return RationalFunction(self.num + other.num, None, _normalized=True)
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den, _normalized=True)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den.is_one() and other.den.is_one():
            return RationalFunction(self.num * other.num, None, _normalized=True)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def inverse(self):
        return RationalFunction(self.den, self.num)

    def __pow__(self, n: int):
        return RationalFunction(self.num ** n, self.den ** n)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Polynomial)):
            other = self._coerce(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        if self.den.is_one():
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"<ratfun {self}>"


SCALARS = (int, Fraction, Polynomial, RationalFunction)


def laurent(ring: Ring, c) -> RationalFunction:
    """An int, Fraction, Polynomial or RationalFunction as a RationalFunction
    over ring.  RationalFunction is tested first: the engine passes those."""
    if isinstance(c, RationalFunction):
        return c
    if isinstance(c, Polynomial):
        return RationalFunction(c)
    return RationalFunction(ring.const(c))


def laurent_term(ring: Ring, c, expts: tuple) -> RationalFunction:
    """The Laurent monomial c*x^expts over ring, for a nonzero rational c
    and an exponent tuple that may have negative entries."""
    num = tuple(max(e, 0) for e in expts)
    den = tuple(max(-e, 0) for e in expts)
    return RationalFunction(ring.monomial(num, c), ring.monomial(den),
                            _normalized=True)


def _rf_normalize(num: Polynomial, den: Polynomial):
    """Cancel the common monomial factor and make the denominator monic.

    The common factor is `poly_gcd(num, den)`, the monomial gcd of the
    supports.  Each numerator term is divided by it and by the
    denominator's coefficient dc.  A monic denominator (dc == 1, as in
    every product or sum of two normalised Laurent polynomials) leaves the
    numerator's coefficients as they are; only another dc divides them,
    through `Fraction`."""
    if num.is_zero():
        return num, num.ring.one
    if den.is_one():
        return num, den
    if not den.is_monomial():
        raise ValueError(f"not a Laurent polynomial: denominator {den} "
                         "is not a monomial")
    if den.is_constant():
        return num.scale(Fraction(1, den.constant_value())), num.ring.one
    (dm, dc), = den.terms.items()
    (gm, _), = poly_gcd(num, den).terms.items()
    if dc == 1:
        terms = {mono_div(m, gm): c for m, c in num.terms.items()}
    else:
        terms = {mono_div(m, gm): rational(Fraction(c, dc))
                 for m, c in num.terms.items()}
    return Polynomial(num.ring, terms), num.ring.monomial(mono_div(dm, gm))
