"""Buchberger engine for the free graded-commutative algebra K[e].

The generators of interest are the pair relations f_ij = e_i e_j - e_i*e_j
attached to a multiplication table on a free complex.  Because K[e] is
quasi-commutative (distinct generators commute up to a sign and there are no
lower-order correction terms), Buchberger's algorithm carries over from the
commutative case.  The coprime-lead product criterion does NOT carry over
verbatim: a generator commutes with itself with sign +1 rather than the parity
sign, so two polynomials whose tails share an odd generator need not commute
up to a uniform sign and their S-polynomial can leave a square behind (a
2*[a,a,x]-type term).  The refined criterion used here skips a pair only when
the leads are coprime, both polynomials are parity-homogeneous, and no odd
generator occurs in both polynomials; under those hypotheses f*g = +-g*f holds
exactly and the classical telescoping proof applies.

The chain criterion (Buchberger; in the form of Gebauer & Moeller, J.
Symbolic Comput. 6, 1988, that keeps one spanning tree of the pairs sharing
an lcm) needs no such hypothesis.  Let f_i, f_j, f_k have leads a_i, a_j, a_k
with a_k | T = lcm(a_i, a_j).  Left multiplication by monomials is
associative, e^p e^q = +-e^(p+q) is never 0 in the non-strict algebra, and
the term order is multiplicative; so e^(T-a)f has lead T with a nonzero
coefficient for each of a = a_i, a_k, a_j.  The combinations of these three
products that cancel T form a 2-dimensional space, spanned by
e^(T-lcm_ik) S(i,k) and e^(T-lcm_kj) S(k,j) (one has no f_j part, the other
no f_i part).  S(i,j) lies in that space.  If S(i,k) and S(k,j) have
representations sum c e^m g with every m + lead(g) below their own lcm,
lifting them by e^(T-lcm) gives one of S(i,j) with every term below T, and
the pair (i,j) can be skipped.  The pairs (i,k) and (k,j) qualify once they
are no longer pending: popped (reduced to zero or to a new element, or
skipped by this criterion on pairs removed before them) or kept out of the
queue by the product criterion.  The pending guard orders every skip after
the pairs it relies on, so a triangle of pairs with equal lcms cannot skip
itself away: the first of them to be popped finds the other two pending.
Kandri-Rody & Weispfenning (J. Symbolic Comput. 9, 1990) carry Buchberger's
theory over to algebras of solvable type, which include K[e].

The monomial criterion.  Every basis element is monic.  If f = e^a and
g = e^b are single-term elements and T = lcm(a, b), then e^(T-a)f = s e^T
and e^(T-b)g = s' e^T with s, s' = +-1, since e^p e^q = +-e^(p+q) is never
0 in the non-strict algebra; so S(f, g) = s e^T - (s/s') s' e^T = 0.  The
pair needs no reduction, and 0, the empty sum, is a representation with
every term below T.  That is the property the chain criterion asks of a
pair that is no longer pending, so a pair kept out of the queue this way
counts as not pending, as a product-criterion skip does.  Pairs with a
single-term element and one with several terms still enter the queue.

Lifting a monic element changes only signs.  Let f = sum_t c_t e^t with
lead coefficient 1, and m a monomial.  Then e^m f = sum_t +-c_t e^(m+t):
each product e^m e^t is +-e^(m+t) and never 0, and t -> m + t is
injective, so no two terms merge and every coefficient keeps its value up
to the Koszul sign.  So `GCPoly.term_mul_left(1, m)` multiplies no
coefficient, the lifted leads in `spoly` are +-1 and their ratio is +-1,
so the S-polynomial is u - v or u + v with no scaling pass; and in
`normal_form` the quotient of a reduction step is +-c, c the coefficient
it cancels, so the step makes one multiplication per reducer term.

The lead index.  The engine's basis lists (`_LeadList`) group their leads
by support mask (`ring.mono_mask`), and one lookup, the groups whose mask
lies inside mono_mask(m), serves the three divisor searches: the reducer
in `normal_form`, the element k of the chain criterion (a lead dividing
lcm(a_i, a_j), whose mask is the OR of the two lead masks), and the leads
that interreduction drops.  It is complete: if a | m then every generator
in the support of a is in the support of m, so mono_mask(a) is a submask
of mono_mask(m) and a sits in a visited group.  It keeps the first-divisor
rule: `normal_form` takes the smallest index among the divisors, the
element that a scan of the basis in order meets first.  The lookup yields
the groups in ascending order of their first index, so that search ends at
the first group that starts after the best index found.  A group is
reached through the submasks of mono_mask(m) when there are at most as
many of them as groups, and by a scan of the groups otherwise, so a lookup
never probes more than the groups, and never more than the leads.  A
squarefree lead in a visited group divides m without an exponent test:
each of its exponents is 1, and m's is at least 1 wherever the lead's mask
has a bit.  The list remembers the groups that each mask's lookup found,
and forgets them all at its next `append`, the one write that can add a
group or an element to one: between two appends the same masks come back
to every reduction and chain test, and the answer is read once.

The associativity certificate: complete {f_ij} to a Groebner basis; the table
is associative exactly when no basis element has a lead monomial of total
degree 1 (a single generator).  Those degree-1 elements are the obstruction
witnesses; monomials of total degree 2 that survive reduction mark products
the table does not define yet.

The linear route for complete tables (Bergman's diamond lemma, Adv. Math.
29, 1978, applied to a quotient algebra).  Suppose the table defines every
product, so the generators are the n(n+1)/2 relations f_ab, one per
quadratic monomial e_a e_b (odd squares included).  In a table that
`mult_ideal` accepts, a*b = sum_d c_abd x^(m_a+m_b-m_d) d with rational
c_abd (`Multiplication.structure_constants`), m_d the multidegree of d.
Let K be the fraction field and A_K the complex with this table and
scalars extended to K.  In the rescaled basis d' = x^(-m_d) d, a'*b' =
sum_d c_abd d', so A_K = A_Q (x) K for the Q-algebra A_Q with the constants
c_abd, and a multihomogeneous vector sum_d q_d x^(M-m_d) d is x^M times the
rational vector q.  So the K-rank of multihomogeneous vectors is the
Q-rank of their rational vectors (split a K-relation into its
multihomogeneous parts).  Let S' be the smallest subspace of A_Q that
contains every basis associator and is closed under left multiplication by
each generator.  The table is
graded-commutative, so S'_K = S' (x) K is a two-sided ideal; it holds every
associator, which is K-trilinear in its arguments; so B = A_K/S'_K is
associative and graded-commutative.
  * The witnesses are the reduced echelon basis of S', each pivot the
    largest generator of its row in the term order, written in the original
    basis: e_p + sum_b c_b x^(m_p-m_b) e_b over non-pivot b.  The pair part
    is the monic f_ab for non-pivot a <= b, its tail reduced by the
    witnesses.  Call the union G.
  * G lies in the ideal I = (f_ab).  Modulo the f's, e_a e_b e_c reduces
    both to (a*b)*c and to a*(b*c), so every basis associator lies in I;
    and for a linear w in I, e_a w lies in I and reduces to a*w.  So S'_K,
    read as linear polynomials, lies in I.
  * e_a -> a extends to an algebra map phi: K[e] -> B, onto B, which kills
    every f_ab and every witness, hence I.
  * Every monomial of total degree >= 2 is divisible by a pivot e_p or by
    e_a e_b with a, b not pivots, so any p reduces modulo G to a remainder
    r spanned by 1 and the e_c with c not a pivot, with p - r in I.  If p
    lies in I, so does r, and phi(r) = 0; the classes of 1 and of those c
    are independent in B, so r = 0.  Every element of I reduces to zero:
    G is a Groebner basis of I.
  * It is reduced: the leads are distinct, a pivot divides no pair lead of
    G, and every tail is linear in non-pivot generators.
The reduced basis is unique, so G is `buchberger`'s basis as a set.  The
route lists the pair part in `mult_ideal` order, as the completion does,
then the witnesses in ascending lead order.  The completion lists its
witnesses in the order it derives them: that is ascending lead order on
every fixture, but not on some perturbed Taylor tables of six monomials
(`tools/check_criteria.py`).  The table is associative exactly when S' = 0,
and then the monic f_ab are their own basis.  No product is undefined:
every pair monomial is a lead of G or divisible by a pivot, so its normal
form is linear.
The route reads the basis associators from `MDGAlgebra.basis_associators`,
whose docstring proves its skips sound.  It reads triples with a at or
before c only.  On a complete table it reads only the candidates of the
structure constants: [a,b,c] = sum_d c_abd d*c - sum_e c_bce a*e (up to
monomial factors), so a triple can have a nonzero associator only if some
d in the support of a*b has d*c != 0 or some e in the support of b*c has
a*e != 0.  Both skips need every product a*b in degree |a| + |b|, checked
by `Multiplication.structure_constants` before any triple is read; the
certificate computes those constants once, and the route reads its whole
basis from them: the span, the pair relations and their reduced tails.
The verdict, the witnesses and the basis size need only the span: G has
one pair relation per pair a <= b of the n non-pivot generators, so it has
n(n+1)/2 + w elements for w witnesses.  So the route builds the witnesses
with the span and the pair relations only when the basis's elements are
first read (`_LinearBasis`): `mdg reduce` builds them, the certificate
and `mdg gb` do not.

The route rule.  The route needs the lead of every f_ab, a <= b in
`context_for` order, to be its pair monomial e_a e_b, and an echelon form
of S' over the generators alone.  `complete_relations` reads both from the
structure constants: every pair a <= b is defined, and every d in the
support of a*b is a generator (not the unit) whose index is at least a's.
That is exactly the condition.  `structure_constants` has checked that
e_a e_b and every e_d have the degree |a| + |b|, so the order compares
exponent tuples from the left.  If index(d) < index(a), e_d has a 1 where
e_a e_b has 0, with 0 in both before it, and e_d leads.  Otherwise e_a e_b
has a positive exponent at a, where e_d has 0 unless d = a; when d = a, the
exponent 2 at a (for b = a) or the 1 at b, where e_d has 0, decides.  So
e_a e_b leads, and the route records each pair lead itself, as (e_a e_b,
bit a | bit b), reading no term order.  When every generator has positive
degree, |d| exceeds |a| and |b|, so d comes after a and b and the rule
always holds.  The unit can only occur with degree-0 generators; it is
kept out because it would enter S', whose echelon form is over the
generators only.

`buchberger` returns a `GBasis` whose elements are plain monic `GCPoly`s,
interreduced: no lead monomial divides another, and whose `stats` count the
work done (see `STATS`).  A completion that processes more than `max_pairs`
S-pairs raises `PairLimitError`, an `MDGError`, so the CLI exits 2 on it;
the error carries the counters reached at the limit.

Coefficients are Laurent polynomials (see `ring.laurent`).  That
holds because every pair relation is multihomogeneous, so `mult_ideal`
rejects a table with a product that is not multihomogeneous of the expected
multidegree before any S-polynomial is formed.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from heapq import heappop, heappush

from . import linalg
from .complexes import UNIT, ComplexError, Element, FreeComplex
from .gcalg import GCContext, GCPoly
from .mdg import MDGAlgebra, MDGError
from .ring import (add_term, laurent, laurent_term, mono_div, mono_divides,
                   mono_lcm, mono_mask, mono_mul)

__all__ = [
    "GBasis", "LINEAR_STATS", "PairLimitError", "ReductionTrace", "STATS",
    "associativity_certificate", "buchberger", "complete_relations",
    "context_for", "element_to_gc", "gc_to_element", "mult_ideal",
    "normal_form", "pair_relation", "spoly",
]


def context_for(cx: FreeComplex) -> GCContext:
    """The free algebra on the complex's basis (unit excluded), ordered by
    homological degree with declaration order breaking ties."""
    names = [n for n in cx.order if n != UNIT]
    names.sort(key=lambda n: cx.basis[n].degree)      # stable
    return GCContext(cx.ring, names, [cx.basis[n].degree for n in names])


def element_to_gc(ctx: GCContext, x: Element) -> GCPoly:
    """View a complex element (an R-combination of basis elements) inside
    K[e] as a polynomial of total degree <= 1."""
    terms = {}
    for name, coeff in x.coeffs.items():
        if name == UNIT:
            mono = ctx.zero_mono
        else:
            i = ctx.index(name)
            mono = ctx.zero_mono[:i] + (1,) + ctx.zero_mono[i + 1:]
        terms[mono] = laurent(ctx.ring, coeff)
    return GCPoly(ctx, terms)


def gc_to_element(cx: FreeComplex, p: GCPoly) -> Element:
    """Inverse of element_to_gc; raises if p has a monomial of total degree > 1."""
    coeffs: dict = {}
    for mono, coeff in p.terms.items():
        total = p.ctx.mono_total(mono)
        if total > 1:
            raise ComplexError(
                f"{p.ctx.format_mono(mono)} is not linear in the generators")
        if total == 0:
            name = UNIT
        else:
            name = p.ctx.names[next(i for i, e in enumerate(mono) if e)]
        add_term(coeffs, name, coeff)
    return Element(cx, coeffs)


def pair_relation(ctx: GCContext, alg: MDGAlgebra, a: str, b: str) -> GCPoly:
    """The relation (word e_a e_b) - (table product a*b) in K[e]."""
    sign, mono = ctx.word_mono([ctx.index(a), ctx.index(b)])
    terms = {mono: ctx.coeff_one if sign == 1 else -ctx.coeff_one}
    for m, c in element_to_gc(ctx, alg.mult.product(a, b)).terms.items():
        terms[m] = -c       # linear, so never the pair monomial
    return GCPoly(ctx, terms)


def mult_ideal(alg: MDGAlgebra, ctx: GCContext = None, *, consts=None):
    """(context, generators): f_ij = e_i e_j - e_i*e_j for every pair i <= j
    the table defines (odd squares are implied zero, so f_ii = e_i^2 there).
    Pairs with no stored product are skipped (partial-table exploration).

    consts is the table's `structure_constants()`, computed here when the
    caller has not.  Computing them raises the MDGError of a table that is
    not homogeneous (the triple scan and the route rule rely on it) or not
    multihomogeneous (the engine's Laurent coefficients rely on it)."""
    if ctx is None:
        ctx = context_for(alg.complex)
    if consts is None:
        consts = alg.mult.structure_constants()
    return ctx, [pair_relation(ctx, alg, a, b)
                 for i, a in enumerate(ctx.names) for b in ctx.names[i:]
                 if (a, b) in consts]


def spoly(f: GCPoly, g: GCPoly, lcm: tuple = None) -> GCPoly:
    """Left S-polynomial: cofactor monomials lift both leads to their lcm and
    the scalar is chosen so the lead terms cancel exactly.  lcm is the lcm
    of the two leads; `buchberger` passes the one its queue entry holds,
    and it is computed when not given.  When the lifted leads agree up to
    sign, as they do for monic f and g (see the module docstring), the
    scalar is +-1: the result is u - v or u + v, summed into one dict that
    never forms the lead term, which cancels by construction."""
    a, b = f.lead_mono(), g.lead_mono()
    if lcm is None:
        lcm = mono_lcm(a, b)
    u = f.term_mul_left(1, mono_div(lcm, a))
    v = g.term_mul_left(1, mono_div(lcm, b))
    cu, cv = u.terms[lcm], v.terms[lcm]
    if cu == cv:
        minus = True
    elif cu == -cv:
        minus = False
    else:
        return u - v.scale(cu * cv.inverse())
    terms = dict(u.terms)
    del terms[lcm]
    for m, c in v.terms.items():
        prev = terms.get(m)
        if prev is None:
            if m != lcm:
                terms[m] = -c if minus else c
            continue
        c = prev - c if minus else prev + c
        if c.is_zero():
            del terms[m]
        else:
            terms[m] = c
    return GCPoly(f.ctx, terms)


class ReductionTrace:
    """Audit trail of a reduction: f = sum_k c_k * e^(m_k) * basis[i_k] + NF.

    Steps are (basis index, cofactor monomial, coefficient)."""

    __slots__ = ("steps",)

    def __init__(self):
        self.steps = []

    def replay(self, f: GCPoly, basis) -> GCPoly:
        """Recompute the normal form from the recorded steps."""
        terms = dict(f.terms)
        for idx, mono, coeff in self.steps:
            for m, c in basis[idx].term_mul_left(coeff, mono).terms.items():
                add_term(terms, m, -c)
        return GCPoly(f.ctx, terms)


def _bit_indices(mask: int) -> list:
    """The positions of the set bits of mask, in ascending order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _has_square(mono: tuple, mask: int) -> bool:
    """Whether some exponent of mono exceeds 1; mask is `mono_mask(mono)`,
    so only the generators in the support are read."""
    while mask:
        low = mask & -mask
        if mono[low.bit_length() - 1] > 1:
            return True
        mask ^= low
    return False


class _LeadList(list):
    """A basis list that indexes its leads by support mask as it grows:
    `groups` maps each lead mask to the (index, lead) pairs of the elements
    with that mask, in index order.  The lead is None when it is
    squarefree: then every monomial whose mask holds the lead's is a
    multiple of it.  The list grows only by `append`; the engine never
    writes a basis any other way.  `within` remembers its answer per mask
    until the next `append`."""

    def __init__(self, polys=()):
        super().__init__()
        self.groups = {}
        self._within = {}
        for p in polys:
            self.append(p)

    def append(self, poly: GCPoly):
        if poly.terms:
            lm, mask = poly.lead()
            self.groups.setdefault(mask, []).append(
                (len(self), lm if _has_square(lm, mask) else None))
            self._within.clear()
        super().append(poly)

    def within(self, mask: int) -> list:
        """The groups whose mask lies inside mask, in ascending order of
        their first index, remembered until the next `append`."""
        found = self._within.get(mask)
        if found is None:
            found = self._within[mask] = self._lookup(mask)
        return found

    def _lookup(self, mask: int) -> list:
        """`within` computed: the groups of mask's submasks, enumerated from
        mask down to 0, when there are at most as many submasks as groups,
        and a scan of the groups otherwise (the dict keeps them in the
        order of their first index)."""
        groups = self.groups
        if 1 << mask.bit_count() > len(groups):
            return [group for gmask, group in groups.items()
                    if not gmask & ~mask]
        found = []
        sub = mask
        while True:
            group = groups.get(sub)
            if group is not None:
                found.append(group)
            if not sub:
                found.sort()
                return found
            sub = (sub - 1) & mask

    def divisors(self, m: tuple, mask: int):
        """The indices of the elements whose lead divides m; mask is
        `mono_mask(m)`."""
        return (i for group in self.within(mask) for i, lm in group
                if lm is None or mono_divides(lm, m))

    def first_divisor(self, m: tuple, mask: int):
        """The smallest index among `divisors(m, mask)`, or None.  Each
        group is read up to its first divisor, and the search ends at a
        group that starts after the best index so far."""
        best = None
        for group in self.within(mask):
            if best is not None and group[0][0] > best:
                break
            for i, lm in group:
                if best is not None and i > best:
                    break
                if lm is None or mono_divides(lm, m):
                    best = i
                    break
        return best


def normal_form(f: GCPoly, basis):
    """(normal form, trace) of f under left reduction by the basis: no
    monomial of the normal form is divisible by a basis lead.  Reduces plain
    dicts and wraps the remainder once, so f and the basis are never mutated.
    The first basis element whose lead divides wins: the smallest index
    among the divisors that the basis's lead index finds."""
    key = f.ctx.order_key
    if not isinstance(basis, _LeadList):
        basis = _LeadList(basis)
    trace = ReductionTrace()
    remainder = {}
    work = dict(f.terms)
    while work:
        m = max(work, key=key)
        reducer = basis.first_divisor(m, mono_mask(m))
        if reducer is None:
            remainder[m] = work.pop(m)
            continue
        g = basis[reducer]
        cof = mono_div(m, g.lead_mono())
        t = g.term_mul_left(1, cof)
        lc = t.terms[m]
        c = work.pop(m)             # the step cancels the term at m
        if not lc.is_one():         # a monic reducer lifts to a lead of +-1
            c = -c if (-lc).is_one() else c * lc.inverse()
        for tm, tc in t.terms.items():
            if tm != m:
                add_term(work, tm, -(c * tc))
        trace.steps.append((reducer, cof, c))
    return GCPoly(f.ctx, remainder), trace


class PairLimitError(MDGError):
    """Completion processed more S-pairs than its `max_pairs` limit.
    `stats` holds the counters reached at the limit: the `STATS` keys, as
    `GBasis.stats` would hold them, and `basis_size`, the elements held
    then, before interreduction."""

    def __init__(self, message: str, stats: dict):
        super().__init__(message)
        self.stats = stats


# The counters `buchberger` keeps in `GBasis.stats`: pairs pushed on the
# queue, pairs of single-term elements kept out of it, pairs kept out of it
# by the product criterion, popped pairs skipped by the chain criterion,
# S-polynomials that vanish, nonzero S-polynomials that reduce to zero, the
# steps of the normal forms of the S-polynomials, and elements the
# completion added to the generators.
STATS = ("pairs_queued", "monomial_skips", "product_skips", "chain_skips",
         "zero_spolys", "zero_normal_forms", "reduction_steps", "derived")


class GBasis:
    """Confluent, interreduced basis: a list of monic GCPolys, and the
    counters of the route that made it: `STATS` for `buchberger`,
    `LINEAR_STATS` for the linear route, empty when none is given.
    `buchberger` hands over the elements it has built; the linear route's
    basis, a `_LinearBasis`, builds them on first access."""

    def __init__(self, ctx: GCContext, elements, stats=None):
        self.ctx = ctx
        self.elements = _LeadList(elements)
        self.stats = stats or {}

    def reduce(self, f: GCPoly):
        return normal_form(f, self.elements)

    def contains_poly(self, f: GCPoly) -> bool:
        return self.reduce(f)[0].is_zero()

    def linear_elements(self):
        """Elements whose lead monomial is a single generator."""
        return [e for e in self.elements
                if self.ctx.mono_total(e.lead_mono()) == 1]

    def __len__(self):
        return len(self.elements)


class _LinearBasis(GBasis):
    """The linear route's basis (`_linear_basis`): its size, its witnesses
    and `build`, a function that yields the elements in order.  `elements`
    is built from it on first access, so `reduce` and every other reader
    of the elements see the list the route would have built at once;
    `len()` and `linear_elements()` build nothing."""

    def __init__(self, ctx: GCContext, size: int, witnesses, build, stats):
        self.ctx = ctx
        self.stats = stats
        self._size = size
        self._witnesses = witnesses
        self._build = build

    @cached_property
    def elements(self):
        return _LeadList(self._build())

    def linear_elements(self):
        return list(self._witnesses)

    def __len__(self):
        return self._size


def _pair_key(ctx: GCContext, a: tuple, b: tuple):
    return ctx.order_key(mono_lcm(a, b))


def buchberger(ctx: GCContext, generators, criteria: bool = True,
               max_pairs: int = 200000) -> GBasis:
    """Complete the generators to a confluent, interreduced basis.

    Pair selection: smallest lcm in the term order first.  With `criteria`,
    three criteria skip pairs (all proved in the module docstring).  The
    monomial criterion keeps a pair of single-term elements out of the
    queue: its S-polynomial is 0.  The product criterion keeps a pair out
    of the queue when the leads are coprime, both elements are
    parity-homogeneous and they share no odd generator in any term; the
    plain coprime-lead criterion is unsound here.  The chain criterion
    skips a popped pair (i, j) when another element k has a lead dividing
    lcm(a_i, a_j) and neither (i, k) nor (j, k) is still pending; a pair
    kept out of the queue is never pending.  `criteria=False` reduces every
    pair: the reference run.  Raises PairLimitError after `max_pairs`
    pairs.

    The monomial and product criteria are read from bitsets over the
    element indices, kept per generator g (the elements whose lead holds
    g, and those whose odd support holds g) and for the whole list (the
    single-term and the parity-homogeneous elements).  A new element's
    skips are a few ANDs and ORs of these, and the pairs that remain are
    queued in ascending order of the older element, as a loop over the
    older elements would queue them."""
    elements = _LeadList()
    # the lead and odd-support masks of each element, and the bitsets of
    # the criteria (see the docstring)
    masks, odds = [], []
    lead_holds, odd_holds = [0] * ctx.n, [0] * ctx.n
    single = homogeneous = 0
    odd_gens = sum(1 << i for i in ctx.odd)
    stats = dict.fromkeys(STATS, 0)
    key = ctx.order_key

    def append(poly):
        nonlocal single, homogeneous
        bit = 1 << len(elements)
        elements.append(poly)
        mask = poly.lead()[1]
        odd = 0
        for mono in poly.terms:
            odd |= mono_mask(mono)
        odd &= odd_gens
        masks.append(mask)
        odds.append(odd)
        for g in _bit_indices(mask):
            lead_holds[g] |= bit
        for g in _bit_indices(odd):
            odd_holds[g] |= bit
        if len(poly.terms) == 1:
            single |= bit
        if len({key(m)[0] & 1 for m in poly.terms}) == 1:
            homogeneous |= bit

    for g in generators:
        if not g.is_zero():
            append(g.monic())
    queue = []
    pending = set()   # the pairs (i, j), i < j, on the queue
    counter = 0

    def chain_skip(i, j, lcm):
        mask = masks[i] | masks[j]      # mono_mask(lcm)
        for k in elements.divisors(lcm, mask):
            if (k != i and k != j
                    and (min(i, k), max(i, k)) not in pending
                    and (min(j, k), max(j, k)) not in pending):
                return True
        return False

    def push_pairs(new_index):
        """Queue the pairs (i, new_index), i < new_index, in ascending i,
        less the criteria's skips, read from the bitsets: every earlier
        single-term element when the new one has a single term; then every
        earlier parity-homogeneous element whose lead shares no generator
        with the new lead and whose odd support meets the new one's
        nowhere, when the new one is parity-homogeneous."""
        nonlocal counter
        bit = 1 << new_index
        todo = bit - 1
        if criteria:
            if single & bit:
                skip = single & todo
                stats["monomial_skips"] += skip.bit_count()
                todo &= ~skip
            if homogeneous & bit:
                clash = 0
                for g in _bit_indices(masks[new_index]):
                    clash |= lead_holds[g]
                for g in _bit_indices(odds[new_index]):
                    clash |= odd_holds[g]
                skip = todo & homogeneous & ~clash
                stats["product_skips"] += skip.bit_count()
                todo &= ~skip
        lm_new = elements[new_index].lead_mono()
        for i in _bit_indices(todo):
            counter += 1
            heappush(queue, (_pair_key(ctx, elements[i].lead_mono(), lm_new),
                             counter, i, new_index))
            pending.add((i, new_index))

    for k in range(len(elements)):
        push_pairs(k)
    inputs = len(elements)

    processed = 0
    while queue:
        processed += 1
        if processed > max_pairs:
            stats["pairs_queued"] = counter
            stats["derived"] = len(elements) - inputs
            raise PairLimitError(
                f"pair limit of {max_pairs} exceeded with {len(elements)} "
                "basis elements; the completion may not terminate",
                {**stats, "basis_size": len(elements)})
        (_, lcm), _, i, j = heappop(queue)      # the key is order_key(lcm)
        pending.remove((i, j))
        if criteria and chain_skip(i, j, lcm):
            stats["chain_skips"] += 1
            continue
        s = spoly(elements[i], elements[j], lcm)
        if s.is_zero():
            stats["zero_spolys"] += 1
            continue
        nf, trace = normal_form(s, elements)
        stats["reduction_steps"] += len(trace.steps)
        if nf.is_zero():
            stats["zero_normal_forms"] += 1
            continue
        append(nf.monic())
        push_pairs(len(elements) - 1)

    stats["pairs_queued"] = counter
    stats["derived"] = len(elements) - inputs
    return GBasis(ctx, _interreduce(elements), stats)


def _interreduce(elements: _LeadList):
    # drop elements whose lead is divisible by another lead (the first of
    # equal leads stays), then tail-reduce
    kept = []
    for i, e in enumerate(elements):
        lm, mask = e.lead()
        if all(j == i or (elements[j].lead_mono() == lm and j > i)
               for j in elements.divisors(lm, mask)):
            kept.append(e)
    # No kept lead divides another, and a lead divides no smaller monomial,
    # so reducing a tail by all of `kept` never picks the element itself.
    basis = _LeadList(kept)
    out = []
    for e in kept:
        lm = e.lead_mono()
        tail, _ = normal_form(
            GCPoly(e.ctx, {m: c for m, c in e.terms.items() if m != lm}), basis)
        out.append(GCPoly(e.ctx, {lm: e.terms[lm], **tail.terms}).monic())
    return out


class CertificateReport:
    """Outcome of the associativity certificate.  `route` is "linear" for a
    complete table and "buchberger" for a partial one."""

    def __init__(self, associative, witnesses, undefined_pairs, basis: GBasis,
                 route: str):
        self.associative = associative
        self.witnesses = witnesses            # GCPoly list, lead total degree 1
        self.undefined_pairs = undefined_pairs  # [(name, name)]
        self.basis = basis
        self.route = route

    def summary(self) -> str:
        lines = []
        if not self.associative:
            lines.append(f"not associative: {len(self.witnesses)} witness(es)")
            lines += [f"  {w}" for w in self.witnesses]
        if self.undefined_pairs:
            lines.append("undefined products: " + ", ".join(
                f"{a}*{b}" for a, b in self.undefined_pairs))
        return "\n".join(lines) if lines else "associative"


def associativity_certificate(alg: MDGAlgebra) -> CertificateReport:
    """Complete the pair relations of the table.  The table is associative
    iff no completed basis element has a single-generator lead; pair
    monomials that stay irreducible mark products the table leaves undefined
    (reported separately, not as non-associativity).

    The structure constants are computed and checked once; the route and
    the linear route's basis are read from them.  `complete_relations`
    chooses the route."""
    consts = alg.mult.structure_constants()
    ctx = context_for(alg.complex)
    basis, witnesses, route = complete_relations(alg, ctx, consts)
    undefined = []
    if route == "buchberger":
        for i, a in enumerate(ctx.names):
            for b in ctx.names[i:]:
                sign, mono = ctx.word_mono([ctx.index(a), ctx.index(b)])
                nf, _ = basis.reduce(GCPoly(ctx, {mono: laurent(ctx.ring, 1)}))
                if any(ctx.mono_total(m) > 1 for m in nf.terms):
                    undefined.append((a, b))
    return CertificateReport(not witnesses, witnesses, undefined, basis, route)


def complete_relations(alg: MDGAlgebra, ctx: GCContext, consts):
    """(basis, witnesses, route): the reduced Groebner basis of the table's
    pair relations `mult_ideal(alg, ctx, consts=consts)`, its elements with
    a single-generator lead, and the route that built it.

    A table that passes `_route_rule` takes the linear route, which builds
    its basis from consts without running Buchberger.  Any other table is
    completed by `buchberger`."""
    if _route_rule(ctx, consts):
        return (*_linear_basis(alg, ctx, consts), "linear")
    _, gens = mult_ideal(alg, ctx, consts=consts)
    basis = buchberger(ctx, gens)
    return basis, basis.linear_elements(), "buchberger"


def _route_rule(ctx: GCContext, consts) -> bool:
    """The route rule, proved in the module docstring, read from the
    structure constants consts: every pair a <= b of generators is defined,
    with every d in the support of a*b a generator at or after a.  consts
    holds every pair exactly when it has n^2 rows, and only a nonzero row
    can fail the support test; the unit, read at position -1, fails it."""
    pos = {nm: i for i, nm in enumerate(ctx.names)}
    return len(consts) == ctx.n ** 2 and not any(
        pos.get(d, -1) < pos[a] for (a, b), row in consts.items()
        if row and pos[a] <= pos[b] for d in row)


def _linear_basis(alg: MDGAlgebra, ctx: GCContext, consts):
    """(basis, witnesses): the reduced basis of a complete table's pair
    relations, read from its structure constants consts (the module
    docstring proves it): the f_ab of the non-pivot pairs a <= b, in
    `mult_ideal` order, then the witnesses in ascending lead order.

    f_ab = e_a e_b - sum_d c_abd x^(m_a+m_b-m_d) e_d is monic, its lead
    e_a e_b recorded with it.  Its tail is reduced by the witnesses by
    substitution on its rational vector t: t' = t - sum_p t_p r_p over the
    pivots p, r_p the echelon row of p.  The rows are in reduced echelon
    form, so r_p holds no other pivot and one pass suffices.  Each term is
    built by `ring.laurent_term`.  The basis's `stats` are the route's
    `LINEAR_STATS`.

    The witnesses are built here; the f_ab only when the basis's
    `elements` are first read (`_LinearBasis`).  Its size needs no build:
    there is one f_ab per pair a <= b of the n generators that are not
    pivots, and one witness per pivot, so the basis has n(n+1)/2 + w
    elements for w witnesses."""
    columns, rows, pivots, stats = _associator_span(alg, ctx, consts)
    ring, basis = ctx.ring, alg.complex.basis
    units = {nm: ctx.zero_mono[:i] + (1,) + ctx.zero_mono[i + 1:]
             for i, nm in enumerate(ctx.names)}

    def terms(vec, top):
        """{e_d: q_d x^(top - m_d)} for the rational vector {d: q_d}."""
        return {units[d]: laurent_term(ring, q, mono_div(top, basis[d].mdeg))
                for d, q in vec.items() if q}

    reducers, witnesses = {}, []
    for row, pc in zip(reversed(rows), reversed(pivots)):
        p = columns[pc]
        vec = {b: q for b, q in zip(columns, row) if q}
        witnesses.append(GCPoly(ctx, terms(vec, basis[p].mdeg),
                                (units[p], 1 << ctx.index(p))))
        reducers[p] = {b: q for b, q in vec.items() if b != p}
    free = [(i, a) for i, a in enumerate(ctx.names) if a not in reducers]

    def build():
        for k, (i, a) in enumerate(free):
            for j, b in free[k:]:
                tail = {d: -c for d, c in consts[a, b].items()}
                for p in [d for d in tail if d in reducers]:
                    tp = tail.pop(p)
                    for d, q in reducers[p].items():
                        tail[d] = tail.get(d, 0) - tp * q
                _, mono = ctx.word_mono([i, j])     # i <= j: no sign
                yield GCPoly(ctx, {mono: ctx.coeff_one, **terms(
                    tail, mono_mul(basis[a].mdeg, basis[b].mdeg))},
                    (mono, 1 << i | 1 << j))
        yield from witnesses

    n = len(free)
    size = n * (n + 1) // 2 + len(witnesses)
    return _LinearBasis(ctx, size, witnesses, build, stats), witnesses


# The counters of the linear route in `GBasis.stats`: the basis triples
# whose associator was read, the dimension of S', and the passes of left
# multiplication by the generators that closed the span, the last of
# which adds nothing.
LINEAR_STATS = ("triples_read", "span_rank", "closure_rounds")


def _associator_span(alg: MDGAlgebra, ctx: GCContext, consts):
    """(columns, rows, pivots, stats): S', the span over Q of the basis
    associators closed under left multiplication by each generator, in
    reduced echelon form over the generators from the largest in the term
    order down, so that each pivot is the largest generator of its row;
    and the `LINEAR_STATS` of the computation.  consts is the table's
    `structure_constants()`.  The generators are sorted by degree, so a
    stable sort by descending degree lists them in descending term order:
    on equal degree, the exponent tuple with its 1 further left is the
    larger."""
    columns = sorted(ctx.names, key=lambda nm: -ctx.degrees[ctx.index(nm)])
    triples = 0

    def associators():
        nonlocal triples
        for _, _, _, v in alg.basis_associators(consts):
            triples += 1
            yield v

    rows, pivots = _echelon([], associators(), columns)
    rounds = 0
    while True:
        rounds += 1
        sparse = [{c: q for c, q in zip(columns, row) if q} for row in rows]
        grown, pivots = _echelon(rows, [alg.mult.q_mul(consts, {a: 1}, v)
                                        for a in ctx.names for v in sparse],
                                 columns)
        if len(grown) == len(rows):
            return columns, rows, pivots, {
                "triples_read": triples, "span_rank": len(rows),
                "closure_rounds": rounds}
        rows = grown


def _echelon(rows, vectors, columns):
    """`linalg.rref` of echelon rows over `columns` plus the Q-vectors
    {name: q}, each nonzero vector read once up to a scalar.  Returns
    (rows, pivot columns)."""
    seen = set()
    dense = []
    for v in vectors:
        v = {k: q for k, q in v.items() if q}
        if not v:
            continue
        scale = v[min(v)]
        key = frozenset((k, Fraction(q, scale)) for k, q in v.items())
        if key not in seen:
            seen.add(key)
            dense.append([v.get(c, 0) for c in columns])
    return linalg.rref(rows + dense)
