"""The symmetric DG algebra of a complex centered at the base ring.

On a free complex with positive-degree basis e_1, ..., e_n the underlying
graded algebra is the strict graded-commutative polynomial algebra on the
basis (odd generators square to zero, even ones do not), bigraded by
homological degree i and total degree m (number of generator factors).  The
differential of the complex extends by the Leibniz rule,

    d(a_1 ... a_m) = sum_j (-1)^(|a_1|+...+|a_(j-1)|) a_1 ... d(a_j) ... a_m,

and splits as d = d_keep + d_drop where d_keep preserves total degree (it
collects the terms where d(a_j) stays in positive degree) and d_drop lowers
it by one (the terms where a degree-1 factor differentiates into the base
ring).  Both squares vanish and the two parts anticommute.

The model is truncated: only total degrees <= N are represented, which is
enough for the quotient presentations and splitting certificates computed
here, since d never raises total degree.

The differential is kept over Q.  Write M(e^a) for the sum of the
multidegrees of the factors of e^a.  `build_sym` refuses a complex unless
d(e) = sum q * x^(m_e - m_t) * t with rational q and every t of degree
|e| - 1, which every multigraded complex satisfies.  Replacing a factor e by
t changes M by m_t - m_e, so the coefficient of e^b in d(e^a) is a rational
times x^(M(a) - M(b)); the strict product e^a e^b = +-e^(a+b) preserves M.
Hence every value `check` compares at a monomial e^c is a rational times
the single Laurent monomial x^(M - M(c)) fixed by its source, and an axiom
holds exactly when its rational parts do.  `check` therefore reads d from
one table, memoised per monomial, of {monomial: rational} dicts (each an
int when integral, else a Fraction, as `ring` stores them), and the
GCPoly methods `d`, `d_keep` and `d_drop` read the same table and rebuild
each coefficient as a Laurent monomial.

`check` reads d^2, d_keep^2 and the anticommutator at every monomial, and
Leibniz only at the pairs (e^a, g), g a generator, with e^a g != 0.  That
suffices (pairs whose product is 0 are skipped throughout):

- Leibniz at every pair, by induction on the total degree of e^b.  Write
  e^b = s e^c g by graded commutativity; e^a e^c and e^c g are nonzero
  with e^a e^b, and the strict product is associative.  The rule at
  (e^a e^c, g), by induction at (e^a, e^c), and at (e^c, g) gives
      d(e^a e^b) = s (d(e^a e^c) g + (-1)^(|a|+|c|) e^a e^c d(g))
                 = d(e^a) e^b + (-1)^|a| e^a s (d(e^c) g + (-1)^|c| e^c d(g))
                 = d(e^a) e^b + (-1)^|a| e^a d(e^b).
- d_drop^2 = 0.  d_drop is the odd derivation (d has degree -1) extending
  e -> q_e, the rational unit coefficient of d(e).  So its square is a
  derivation that kills every generator, d_drop(q_e) = 0, and is zero.

A multiplication on the complex induces the ideal generated by the pair
relations e_i e_j - e_i*e_j; the degree-<=1 part of that ideal recovers the
span of the multiplicators of the inclusion (equivalently, the smallest
subcomplex witnessing the failure of associativity), and when the
multiplication is associative, normal forms against the relation ideal split
the inclusion of the complex into its symmetric algebra.

The total-degree-<=n part is also realized as the fixed subspace of the
signed permutation action on n-fold tensors, with mutually inverse
homogenize/dehomogenize chain maps; homotopies of chain maps extend to
homotopies of their tensor powers by signed symmetrization.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement, permutations
from math import factorial

from . import linalg
from .complexes import UNIT, Element, FreeComplex
from .gcalg import GCPoly
from .groebner import (GBasis, buchberger, context_for, element_to_gc,
                       mult_ideal)
from .mdg import ChainMap, MDGAlgebra
from .ring import add_term, laurent, laurent_term, mono_div

__all__ = [
    "SplitWitness", "SymDGAlgebra", "SymError", "Tensor",
    "build_sym", "dehomogenize", "homogenize", "presentation_check",
    "split_witness", "sym_homotopy", "tensor_power_map", "ump_extension",
]


class SymError(Exception):
    pass


# ---------------------------------------------------------------------------
# the truncated symmetric DG algebra
# ---------------------------------------------------------------------------

class SymDGAlgebra:
    """Strict graded-commutative algebra on the positive part of a free
    complex, truncated at total degree N, with the extended differential."""

    def __init__(self, complex_: FreeComplex, truncation: int = 4):
        if truncation < 1:
            raise SymError("truncation must be at least 1")
        self.complex = complex_
        self.N = truncation
        self.ctx = context_for(complex_)
        self._mdegs = [complex_.basis[n].mdeg for n in self.ctx.names]
        self._diff_words = self._differential_words()
        self._table: dict = {}            # monomial -> (keep, drop)
        self._mdeg_memo: dict = {}        # monomial -> M(monomial)

    def _differential_words(self):
        """index -> list of (rational q, generator index or None for the
        unit), where d(e) = sum q * x^(m_e - m_target) * target.  Raises
        SymError on a target outside degree |e| - 1 and on a coefficient
        that is not such a single term."""
        cx = self.complex
        out = []
        for name in self.ctx.names:
            entries = []
            value = cx.diff.get(name, cx.zero)
            degrees, expected = value.degrees(), cx.basis[name].degree - 1
            if degrees - {expected}:
                raise SymError(f"d({name}) has degrees {sorted(degrees)}, "
                               f"expected {expected}")
            for nm, coeff in value.coeffs.items():
                want = mono_div(cx.basis[name].mdeg, cx.basis[nm].mdeg)
                if not coeff.is_monomial() or coeff.exponents() != [want]:
                    raise SymError(
                        f"d({name}) is not multihomogeneous: its coefficient "
                        f"of {nm} is {coeff}, not a single term of "
                        f"multidegree {want}")
                entries.append((coeff.lead_coeff(),
                                None if nm == UNIT else self.ctx.index(nm)))
            out.append(entries)
        return out

    # -- elements --

    def gen(self, name: str) -> GCPoly:
        return self.ctx.gen(name)

    def mono_poly(self, mono: tuple) -> GCPoly:
        return GCPoly(self.ctx, {mono: laurent(self.ctx.ring, 1)})

    def include(self, x: Element) -> GCPoly:
        """The inclusion of the complex as the total-degree-<=1 part."""
        return element_to_gc(self.ctx, x)

    def mul(self, p: GCPoly, q: GCPoly) -> GCPoly:
        """Strict product; raises when the result leaves the truncation."""
        terms: dict = {}
        for m, c in p.terms.items():
            for m2, c2 in q.terms.items():
                s, pm = self.ctx.mono_mul_signed(m, m2, strict=True)
                if s == 0:
                    continue
                if self.ctx.mono_total(pm) > self.N:
                    raise SymError(
                        f"product leaves the total-degree-{self.N} truncation")
                add_term(terms, pm, c * c2 * s)
        return GCPoly(self.ctx, terms)

    # -- enumeration --

    def monomials(self, total=None, degree=None):
        """Strict monomials within the truncation, optionally filtered by
        total degree and/or homological degree."""
        ctx = self.ctx
        totals = [total] if total is not None else range(self.N + 1)
        out = []
        for m in totals:
            for combo in combinations_with_replacement(range(ctx.n), m):
                mono = [0] * ctx.n
                ok = True
                for i in combo:
                    mono[i] += 1
                    if ctx.parity[i] and mono[i] > 1:
                        ok = False
                        break
                if not ok:
                    continue
                mono = tuple(mono)
                if degree is not None and ctx.mono_degree(mono) != degree:
                    continue
                out.append(mono)
        return out

    def dims(self) -> dict:
        """(homological degree, total degree) -> number of monomials."""
        table: dict = {}
        for mono in self.monomials():
            key = (self.ctx.mono_degree(mono), self.ctx.mono_total(mono))
            table[key] = table.get(key, 0) + 1
        return table

    def component_names(self, degree: int, total: int):
        return [self.ctx.format_mono(m)
                for m in self.monomials(total=total, degree=degree)]

    # -- the differential and its bigraded parts --

    def _split(self, mono: tuple):
        """(keep, drop): d(e^mono) split into the parts keeping and lowering
        total degree, each {monomial: q} for the terms q * x^(M(mono) -
        M(monomial)) * e^monomial.  Computed once per monomial."""
        hit = self._table.get(mono)
        if hit is not None:
            return hit
        ctx = self.ctx
        keep: dict = {}
        drop: dict = {}
        word = [i for i in range(ctx.n) for _ in range(mono[i])]
        prefix = 0
        for j, gi in enumerate(word):
            sign = -1 if prefix & 1 else 1
            rest = word[:j] + word[j + 1:]
            for q, target in self._diff_words[gi]:
                new_word = rest if target is None else (
                    word[:j] + [target] + word[j + 1:])
                s, new_mono = ctx.word_mono(new_word, strict=True)
                if s:
                    _add_q(drop if target is None else keep, new_mono,
                           q * (s * sign))
            prefix += ctx.degrees[gi]
        hit = self._table[mono] = (keep, drop)
        return hit

    def _mdeg(self, mono: tuple) -> tuple:
        """M(mono): the sum of the multidegrees of its factors, memoised."""
        out = self._mdeg_memo.get(mono)
        if out is None:
            out = self.complex.ring.zero_mono
            for e, md in zip(mono, self._mdegs):
                if e:
                    out = tuple(a + e * b for a, b in zip(out, md))
            self._mdeg_memo[mono] = out
        return out

    def _apply(self, p: GCPoly, parts) -> GCPoly:
        """The sum of the given parts (0 keep, 1 drop) of d, applied to p,
        each coefficient rebuilt as the Laurent monomial q * x^(M(mono) -
        M(monomial))."""
        ring = self.ctx.ring
        terms: dict = {}
        for mono, coeff in p.terms.items():
            top = self._mdeg(mono)
            split = self._split(mono)
            for k in parts:
                for m, q in split[k].items():
                    add_term(terms, m, coeff * laurent_term(
                        ring, q, mono_div(top, self._mdeg(m))))
        return GCPoly(self.ctx, terms)

    def d(self, p: GCPoly) -> GCPoly:
        return self._apply(p, (0, 1))

    def d_keep(self, p: GCPoly) -> GCPoly:
        """The component of d preserving total degree."""
        return self._apply(p, (0,))

    def d_drop(self, p: GCPoly) -> GCPoly:
        """The component of d lowering total degree by one."""
        return self._apply(p, (1,))

    def _image(self, terms: dict, k: int, out: dict) -> dict:
        """Add part k (0 keep, 1 drop) of d, applied to the rational
        combination `terms` of monomials, into out."""
        for mono, c in terms.items():
            for m, q in self._split(mono)[k].items():
                _add_q(out, m, c * q)
        return out

    # -- axioms --

    def check(self) -> list:
        """Violations of d^2 = 0, of the bigraded split and of the Leibniz
        rule, over Q; the module docstring says what is read, and why."""
        problems = []
        ctx = self.ctx
        gens = [(g, self.mono_poly(g)) for g in self.monomials(total=1)]
        for mono in self.monomials():
            name = ctx.format_mono(mono)
            keep, drop = self._split(mono)
            keep2 = self._image(keep, 0, {})
            anti = self._image(keep, 1, self._image(drop, 0, {}))
            # d^2 = keep^2 + (the anticommutator) + drop^2, and the three
            # lie in total degrees t, t - 1 and t - 2; drop^2 = 0
            if keep2 or anti:
                problems.append(f"d^2 != 0 at {name}")
            if keep2:
                problems.append(
                    f"degree-keeping part does not square to zero at {name}")
            if anti:
                problems.append(
                    f"the two parts of d do not anticommute at {name}")
            if ctx.mono_total(mono) == self.N:
                continue
            p = self.mono_poly(mono)
            for g, q in gens:
                prod = self.mul(p, q)
                if prod.terms and self._leibniz_defect(mono, g, prod):
                    problems.append(
                        f"Leibniz fails at {name} * {ctx.format_mono(g)}")
        return problems

    def _leibniz_defect(self, a: tuple, b: tuple, prod: GCPoly) -> dict:
        """d(e^a) e^b + sign * e^a d(e^b) - d(e^a e^b) over Q, where sign =
        (-1)^|e^a| and prod = e^a e^b = s * e^ab is not zero."""
        mul = self.ctx.mono_mul_signed
        sign = -1 if self.ctx.mono_degree(a) & 1 else 1
        (ab, c), = prod.terms.items()
        s = 1 if c.is_one() else -1
        out: dict = {}
        for part in self._split(a):
            for m, q in part.items():
                s2, m2 = mul(m, b, strict=True)
                if s2:
                    _add_q(out, m2, q if s2 > 0 else -q)
        for part in self._split(b):
            for m, q in part.items():
                s2, m2 = mul(a, m, strict=True)
                if s2:
                    _add_q(out, m2, q if s2 == sign else -q)
        for part in self._split(ab):
            for m, q in part.items():
                _add_q(out, m, -q if s > 0 else q)
        return out


def _add_q(terms: dict, key, q) -> None:
    """add_term for rational values: drop the key when the sum is zero."""
    q += terms.get(key, 0)
    if q:
        terms[key] = q
    else:
        terms.pop(key, None)


def build_sym(source, truncation: int = 4) -> SymDGAlgebra:
    """The truncated symmetric DG algebra of a free complex (an algebra's
    underlying complex is accepted too)."""
    cx = source.complex if isinstance(source, MDGAlgebra) else source
    return SymDGAlgebra(cx, truncation)


# ---------------------------------------------------------------------------
# linear part of the relation ideal vs. the associator span
# ---------------------------------------------------------------------------

def _dict_rank(rows) -> int:
    """Rank over the fraction field of multihomogeneous dict rows, laid out
    densely over the union of their keys.  Each entry is q*x^(D_row - D_col),
    so the matrix is diag(x^D_row) Q diag(x^-D_col) and has the rank of its
    rational parts Q.  Raises SymError on an entry that is not a monomial."""
    cols = sorted({k for r in rows for k in r})
    return linalg.rank([[_rational_part(r[k]) if k in r else 0
                         for k in cols] for r in rows])


def _rational_part(c):
    if c.is_zero():
        return 0
    if not c.is_monomial():
        raise SymError(f"entry {c} is not a monomial: the row is not "
                       "multihomogeneous")
    return c.lead_coeff()


class PresentationReport:
    """Per homological degree, over the fraction field: the dimension of the
    linear part of the relation ideal against the dimension of the associator
    submodule span.  The two agree exactly when the linear part of the ideal
    is the subcomplex generated by the multiplicators of the inclusion."""

    def __init__(self, components, basis: GBasis):
        self.components = components      # degree -> (ideal dim, span dim)
        self.basis = basis

    def ok(self) -> bool:
        return all(a == b for a, b in self.components.values())

    def summary(self) -> str:
        lines = [f"degree {i}: linear ideal part {a}, generated subcomplex "
                 f"{b}" + ("" if a == b else "  <-- MISMATCH")
                 for i, (a, b) in sorted(self.components.items())]
        return "\n".join(lines) if lines else "zero in all degrees"


def presentation_check(alg: MDGAlgebra) -> PresentationReport:
    """Compare, degree by degree over the fraction field, the linear part of
    the pair-relation ideal with the span of the associator submodule of the
    multiplication.  Both are computed independently: the former by reducing
    the span of each basis element against a completed relation basis and
    taking the kernel, the latter by closing the associators under the module
    action and taking ranks."""
    if not alg.defined_everywhere():
        raise SymError("the comparison needs a total multiplication table")
    ctx, gens = mult_ideal(alg)
    basis = buchberger(ctx, gens)
    cx = alg.complex
    sub = alg.associator_submodule()
    components = {}
    for i in range(1, cx.max_degree() + 1):
        names = [n for n in ctx.names if cx.basis[n].degree == i]
        if not names:
            continue
        # kernel of the reduction map on the degree-i span of the basis
        rows = [basis.reduce(ctx.gen(n))[0].terms for n in names]
        ideal_dim = len(names) - _dict_rank(rows)
        span_dim = _dict_rank([v.coeffs for _, v, d, _ in sub.gens if d == i])
        if ideal_dim or span_dim:
            components[i] = (ideal_dim, span_dim)
    return PresentationReport(components, basis)


# ---------------------------------------------------------------------------
# splitting the inclusion for an associative table
# ---------------------------------------------------------------------------

class SplitWitness:
    """theta on monomials of total degree 2..N: theta(m) = m - NF(m) lies in
    the relation ideal and projects back to m, so it splits the projection of
    the symmetric algebra onto its total-degree->=2 part."""

    def __init__(self, sym: SymDGAlgebra, basis: GBasis, table: dict):
        self.sym = sym
        self.basis = basis
        self.table = table                # monomial -> GCPoly

    def apply(self, p: GCPoly) -> GCPoly:
        terms: dict = {}
        for mono, coeff in p.terms.items():
            if self.sym.ctx.mono_total(mono) < 2:
                continue
            for m, v in self.table[mono].terms.items():
                add_term(terms, m, coeff * v)
        return GCPoly(self.sym.ctx, terms)


def split_witness(alg: MDGAlgebra, truncation: int = 2) -> SplitWitness:
    """Build the splitting for an associative, everywhere-defined table;
    raises when a normal form fails to be linear (which certifies that no
    such splitting through the relation ideal exists)."""
    sym = build_sym(alg.complex, truncation)
    _, gens = mult_ideal(alg, ctx=sym.ctx)
    basis = buchberger(sym.ctx, gens)
    if basis.linear_elements():
        raise SymError(
            "the relation ideal meets the linear part: the table is not "
            "associative, so the inclusion does not split through the ideal")
    table = {}
    for total in range(2, truncation + 1):
        for mono in sym.monomials(total=total):
            p = sym.mono_poly(mono)
            nf, _ = basis.reduce(p)
            if any(sym.ctx.mono_total(m) > 1 for m in nf.terms):
                raise SymError(
                    f"normal form of {sym.ctx.format_mono(mono)} is not "
                    "linear: the table is not associative and total, so the "
                    "inclusion does not split through the relation ideal")
            theta = p - nf
            if not basis.reduce(theta)[0].is_zero():
                raise SymError("splitting value escapes the relation ideal")
            table[mono] = theta
    return SplitWitness(sym, basis, table)


# ---------------------------------------------------------------------------
# tensor powers, homogenization, and symmetrized homotopies
# ---------------------------------------------------------------------------

class Tensor:
    """Element of the n-fold tensor power of a free complex: a linear
    combination of slot tuples of basis names (the unit allowed)."""

    __slots__ = ("complex", "n", "terms")

    def __init__(self, complex_: FreeComplex, n: int, terms: dict = None):
        self.complex = complex_
        self.n = n
        self.terms = terms or {}

    def is_zero(self) -> bool:
        return not self.terms

    def _slot_degree(self, name: str) -> int:
        return 0 if name == UNIT else self.complex.basis[name].degree

    def add_term(self, key: tuple, coeff):
        add_term(self.terms, key, laurent(self.complex.ring, coeff))

    def __add__(self, other):
        out = Tensor(self.complex, self.n, dict(self.terms))
        for k, c in other.terms.items():
            out.add_term(k, c)
        return out

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = laurent(self.complex.ring, c)
        if c.is_zero():
            return Tensor(self.complex, self.n)
        return Tensor(self.complex, self.n,
                      {k: v * c for k, v in self.terms.items()})

    def permute(self, sigma) -> "Tensor":
        """Apply the signed permutation action: slot j of the result is slot
        sigma[j] of the input, with the sign counting odd-odd inversions."""
        out = Tensor(self.complex, self.n)
        for key, coeff in self.terms.items():
            new_key = tuple(key[sigma[j]] for j in range(self.n))
            sign = 1
            for a in range(self.n):
                for b in range(a + 1, self.n):
                    if sigma[a] > sigma[b] and \
                            self._slot_degree(key[sigma[a]]) & 1 and \
                            self._slot_degree(key[sigma[b]]) & 1:
                        sign = -sign
            out.add_term(new_key, coeff * sign)
        return out

    def symmetrize(self) -> "Tensor":
        out = Tensor(self.complex, self.n)
        scale = Fraction(1, factorial(self.n))
        for sigma in permutations(range(self.n)):
            p = self.permute(sigma)
            for k, c in p.terms.items():
                out.add_term(k, c * scale)
        return out

    def is_symmetric(self) -> bool:
        return all((self.permute(s) - self).is_zero()
                   for s in permutations(range(self.n)))

    def d(self) -> "Tensor":
        cx = self.complex
        out = Tensor(cx, self.n)
        for key, coeff in self.terms.items():
            prefix = 0
            for j, name in enumerate(key):
                if name != UNIT:
                    dval = cx.diff.get(name, cx.zero)
                    sign = -1 if prefix & 1 else 1
                    for nm, c in dval.coeffs.items():
                        out.add_term(key[:j] + (nm,) + key[j + 1:],
                                     coeff * c * sign)
                prefix += self._slot_degree(name)
        return out

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for key, coeff in sorted(self.terms.items()):
            parts.append(f"({coeff})*{'@'.join(key)}")
        return " + ".join(parts)

    __repr__ = __str__


def homogenize(sym: SymDGAlgebra, p: GCPoly, n: int) -> Tensor:
    """The symmetric tensor of length n representing an element of total
    degree <= n: each monomial is padded with units and symmetrized."""
    if p.total_degree() > n:
        raise SymError("element does not fit in the requested tensor power")
    ctx = sym.ctx
    out = Tensor(sym.complex, n)
    for mono, coeff in p.terms.items():
        word = [ctx.names[i] for i in range(ctx.n) for _ in range(mono[i])]
        key = (UNIT,) * (n - len(word)) + tuple(word)
        out.add_term(key, coeff)
    return out.symmetrize()


def dehomogenize(sym: SymDGAlgebra, t: Tensor) -> GCPoly:
    """Multiply the slots out; inverse to homogenization on symmetric
    tensors."""
    ctx = sym.ctx
    terms: dict = {}
    for key, coeff in t.terms.items():
        indices = [ctx.index(nm) for nm in key if nm != UNIT]
        s, mono = ctx.word_mono(indices, strict=True)
        if s == 0:
            continue
        add_term(terms, mono, coeff * s)
    return GCPoly(ctx, terms)


def tensor_power_map(maps, t: Tensor, target: FreeComplex) -> Tensor:
    """Apply one homogeneous `ChainMap` per slot, with the sign each map of
    odd degree picks up passing the slots to its left."""
    n = t.n
    if len(maps) != n:
        raise SymError("need one map per tensor slot")
    out = Tensor(target, n)
    for key, coeff in t.terms.items():
        results = [(coeff, ())]
        prefix = 0
        for j, g in enumerate(maps):
            sign = -1 if (g.degree & 1) and (prefix & 1) else 1
            img = g.image(key[j])
            expanded = []
            for c, partial in results:
                for nm, c2 in img.coeffs.items():
                    expanded.append((c * c2 * sign, partial + (nm,)))
            results = expanded
            prefix += t._slot_degree(key[j])
        for c, full in results:
            out.add_term(full, c)
    return out


class SymHomotopy:
    """Signed-symmetrized homotopy between tensor powers of two homotopic
    chain maps: conjugating the telescope by every permutation and averaging
    gives a homotopy from phi^n to psi^n that preserves symmetric tensors."""

    def __init__(self, phi: ChainMap, psi: ChainMap, h: ChainMap, n: int):
        if n < 1:
            raise SymError("tensor power must be at least 1")
        if h.degree != 1:
            raise SymError("a homotopy must raise degree by 1")
        if not h.is_homotopy_between(phi, psi):
            raise SymError("d h + h d differs from phi - psi")
        self.phi = phi
        self.psi = psi
        self.h = h
        self.n = n
        self.source = phi.source
        self.target = phi.target

    def _telescope(self, t: Tensor) -> Tensor:
        terms: dict = {}
        for k in range(self.n):
            maps = [self.phi] * (self.n - k - 1) + [self.h] + [self.psi] * k
            for key, c in tensor_power_map(maps, t, self.target).terms.items():
                add_term(terms, key, c)
        return Tensor(self.target, self.n, terms)

    def apply(self, t: Tensor) -> Tensor:
        if t.n != self.n:
            raise SymError("tensor length mismatch")
        terms: dict = {}
        scale = Fraction(1, factorial(self.n))
        for sigma in permutations(range(self.n)):
            inverse = [0] * self.n
            for j, v in enumerate(sigma):
                inverse[v] = j
            moved = self._telescope(t.permute(tuple(inverse)))
            for key, c in moved.permute(sigma).terms.items():
                add_term(terms, key, c * scale)
        return Tensor(self.target, self.n, terms)

    def endpoint(self, t: Tensor, which: str) -> Tensor:
        g = self.phi if which == "phi" else self.psi
        return tensor_power_map([g] * self.n, t, self.target)


def sym_homotopy(phi: ChainMap, psi: ChainMap, h: ChainMap,
                 n: int) -> SymHomotopy:
    return SymHomotopy(phi, psi, h, n)


# ---------------------------------------------------------------------------
# the universal multiplicative extension to an associative target
# ---------------------------------------------------------------------------

def ump_extension(sym: SymDGAlgebra, phi: ChainMap, target: MDGAlgebra):
    """The multiplicative extension of a chain map out of the underlying
    complex to an associative algebra: products of generators map to
    left-nested products of their images.  Returns a callable on elements of
    the symmetric algebra."""
    if phi.target is not target.complex:
        raise SymError("the chain map does not land in the target algebra")
    ctx = sym.ctx

    def extend(p: GCPoly) -> Element:
        coeffs: dict = {}
        for mono, coeff in p.terms.items():
            word = [ctx.names[i] for i in range(ctx.n)
                    for _ in range(mono[i])]
            if not word:
                value = target.complex.one
            else:
                value = phi.image(word[0])
                for nm in word[1:]:
                    value = target.mul(value, phi.image(nm))
            for k, v in value.coeffs.items():
                add_term(coeffs, k, coeff * v)
        return Element(target.complex, coeffs)

    return extend
