"""Free graded-commutative algebra on homogeneous generators, with Laurent
polynomial coefficients.

`ring.py` owns the coefficient type; this module makes every coefficient
with `ring.laurent`, a Laurent polynomial (a monomial denominator).
Multigraded inputs keep every coefficient a rational times a Laurent
monomial, so `monic()` and the engine's divisions never meet a non-monomial;
one that does raises ValueError.

Generators e_1 < e_2 < ... carry homological degrees (nondecreasing along the
index order).  Monomials commute up to the Koszul sign e_j e_i =
(-1)^{|e_i||e_j|} e_i e_j; in the *free* (non-strict) algebra odd generators
do not square to zero, so e.g. e1^2 is a legal monomial.  A `strict=True`
normalization kills odd squares instead (used for symmetric-algebra models).

The term order is the sort key `order_key(mono) = (degree, exponents)`: higher
homological degree wins; on equal degree, compare exponents left to right,
larger exponent at the first difference wins.

A `GCPoly` is never written after construction: every operation builds a
fresh term dict and wraps it once.  That invariant makes `GCPoly.lead()` sound:
it caches the lead monomial and its support mask on first use.  The linear
route of `groebner`, which knows the lead of every element it builds, passes
it to the constructor as `lead`, (monomial, support mask); it is trusted,
not checked, and `scale` (so `monic`) keeps it, since a nonzero scalar moves
no term.
"""

from __future__ import annotations

from operator import mul

from .ring import SCALARS, Ring, add_term, laurent, mono_mask, mono_mul


class GCContext:
    """Generator data for a free graded-commutative algebra K[e]."""

    def __init__(self, ring: Ring, names, degrees):
        self.ring = ring
        self.names = tuple(names)
        self.degrees = tuple(degrees)
        if len(self.names) != len(self.degrees):
            raise ValueError("names/degrees length mismatch")
        if any(d2 < d1 for d1, d2 in zip(self.degrees, self.degrees[1:])):
            raise ValueError("generators must be ordered by nondecreasing degree")
        self.n = len(self.names)
        self.parity = tuple(d & 1 for d in self.degrees)
        self.odd = tuple(i for i, p in enumerate(self.parity) if p)
        self._index = {nm: i for i, nm in enumerate(self.names)}
        self.zero_mono = (0,) * self.n
        self._keys = {}
        self.zero = GCPoly(self, {})
        # the coefficient 1; coefficients are never written, so one object
        # serves every term that has it
        self.coeff_one = laurent(ring, 1)
        self.one = GCPoly(self, {self.zero_mono: self.coeff_one})

    def index(self, name: str) -> int:
        return self._index[name]

    def gen(self, name: str) -> "GCPoly":
        i = self.index(name)
        mono = tuple(1 if j == i else 0 for j in range(self.n))
        return GCPoly(self, {mono: laurent(self.ring, 1)})

    # -- monomial helpers --

    def mono_degree(self, mono: tuple) -> int:
        return sum(map(mul, mono, self.degrees))

    def mono_total(self, mono: tuple) -> int:
        """Number of generator factors (ignoring homological degree)."""
        return sum(mono)

    def mono_sign(self, a: tuple, b: tuple) -> int:
        """Koszul sign of merging e^a * e^b into the sorted monomial e^(a+b)."""
        par = 0
        # each e_i-block of a (i odd) passes the e_j-blocks of b with j < i odd
        seen_odd_b = 0
        for i in self.odd:
            if a[i] & 1 and seen_odd_b:
                par ^= 1
            if b[i] & 1:
                seen_odd_b ^= 1
        return -1 if par else 1

    def mono_mul_signed(self, a: tuple, b: tuple, strict=False):
        """(sign, product monomial); sign 0 when strict and an odd square appears."""
        prod = mono_mul(a, b)
        if strict and any(prod[i] > 1 for i in self.odd):
            return 0, prod
        return self.mono_sign(a, b), prod

    def word_mono(self, indices, strict=False):
        """Normalize a product of generators given by index sequence.

        Returns (sign, exponent tuple); sign 0 when strict kills it.  The
        sign is (-1)^(number of inversions between odd generators): sorting
        the word transposes exactly those pairs."""
        expts = [0] * self.n
        for i in indices:
            expts[i] += 1
        odd = [i for i in indices if self.parity[i]]
        mono = tuple(expts)
        if strict and len(set(odd)) < len(odd):
            return 0, mono
        inversions = sum(a > b for k, a in enumerate(odd) for b in odd[k + 1:])
        return (-1 if inversions & 1 else 1), mono

    def order_key(self, mono: tuple) -> tuple:
        """(degree, exponents): the term order as a sort key, memoised because
        the engine meets the same monomials over and over."""
        key = self._keys.get(mono)
        if key is None:
            key = self._keys[mono] = (self.mono_degree(mono), mono)
        return key

    def format_mono(self, mono: tuple) -> str:
        parts = []
        for nm, e in zip(self.names, mono):
            if e == 1:
                parts.append(nm)
            elif e > 1:
                parts.append(f"{nm}^{e}")
        return "*".join(parts) if parts else "1"

    def __repr__(self):
        return f"GCContext({', '.join(self.names)})"


class GCPoly:
    """Element of K[e]: dict monomial -> Laurent coefficient (`ring.laurent`)
    over the base ring.  `lead`, when given, is the (lead monomial, support
    mask) that `lead()` would compute; the constructor trusts it."""

    __slots__ = ("ctx", "terms", "_lead")

    def __init__(self, ctx: GCContext, terms: dict, lead: tuple = None):
        self.ctx = ctx
        self.terms = terms
        self._lead = lead

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if not isinstance(other, GCPoly):
            return NotImplemented
        terms = dict(self.terms)
        for m, c in other.terms.items():
            add_term(terms, m, c)
        return GCPoly(self.ctx, terms)

    def __neg__(self):
        return GCPoly(self.ctx, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, GCPoly):
            return NotImplemented
        return self + (-other)

    def scale(self, c) -> "GCPoly":
        c = laurent(self.ctx.ring, c)
        if c.is_zero():
            return self.ctx.zero
        return GCPoly(self.ctx, {m: c * v for m, v in self.terms.items()},
                      self._lead)

    def term_mul_left(self, coeff, mono: tuple) -> "GCPoly":
        """Left-multiply by the single term coeff * e^mono.  In the free
        algebra e^mono e^m = +-e^(mono+m), never 0, and distinct m give
        distinct products, so each term maps to one term.  A coefficient of
        one multiplies nothing: the product only applies the Koszul signs."""
        ctx = self.ctx
        scaled = coeff != 1
        if scaled:
            coeff = laurent(ctx.ring, coeff)
            if coeff.is_zero():
                return ctx.zero
        mul = ctx.mono_mul_signed
        terms: dict = {}
        for m, c in self.terms.items():
            s, pm = mul(mono, m)
            if scaled:
                c = coeff * c
            terms[pm] = c if s == 1 else -c
        return GCPoly(ctx, terms)

    def __mul__(self, other):
        if not isinstance(other, GCPoly):
            if isinstance(other, SCALARS):
                return self.scale(other)
            return NotImplemented
        terms: dict = {}
        for m, c in self.terms.items():
            for pm, v in other.term_mul_left(c, m).terms.items():
                add_term(terms, pm, v)
        return GCPoly(self.ctx, terms)

    def __rmul__(self, other):
        if isinstance(other, SCALARS):
            return self.scale(other)
        return NotImplemented

    def lead(self) -> tuple:
        """(lead monomial, support mask), computed on first use and cached."""
        if self._lead is None:
            if not self.terms:
                raise ValueError("zero element has no lead monomial")
            m = max(self.terms, key=self.ctx.order_key)
            self._lead = (m, mono_mask(m))
        return self._lead

    def lead_mono(self) -> tuple:
        return self.lead()[0]

    def lead_coeff(self):
        return self.terms[self.lead_mono()]

    def monic(self) -> "GCPoly":
        """self scaled to lead coefficient one: self itself when it is zero
        or already monic (a GCPoly is never written, so sharing is safe)."""
        if self.is_zero():
            return self
        lc = self.lead_coeff()
        if lc.is_one():
            return self
        return self.scale(lc.inverse())

    def total_degree(self) -> int:
        """Max number of generator factors in a monomial (-1 for zero)."""
        if not self.terms:
            return -1
        return max(self.ctx.mono_total(m) for m in self.terms)

    def sorted_terms(self):
        key = self.ctx.order_key
        return sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=True)

    def __eq__(self, other):
        if not isinstance(other, GCPoly):
            return NotImplemented
        return self.ctx is other.ctx and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self):
        return format_gcpoly(self)

    def __repr__(self):
        return f"<gc {self}>"


def format_gcpoly(p: GCPoly) -> str:
    """Canonical text: terms in descending order, coefficients parenthesized
    unless they equal +-1 (e.g. `(z*u)*e2*e35 + (-v)*e6*e35`)."""
    if p.is_zero():
        return "0"
    out = []
    for i, (m, c) in enumerate(p.sorted_terms()):
        ms = p.ctx.format_mono(m)
        one = c.is_one()
        minus_one = (-c).is_one()
        if m == p.ctx.zero_mono:
            body = f"({c})" if not (one or minus_one) else "1"
            sign = minus_one
        elif one or minus_one:
            body = ms
            sign = minus_one
        else:
            neg = c.lead_coeff() < 0
            cc = -c if neg else c
            body = f"({cc})*{ms}"
            sign = neg
        if i == 0:
            out.append(("-" if sign else "") + body)
        else:
            out.append(("- " if sign else "+ ") + body)
    return " ".join(out)
