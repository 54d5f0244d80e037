"""Differential graded modules with a (possibly non-associative) multiplication.

A multiplication is stored as a table of products of basis elements, subject
to: unitality (products with "1" are implied), strict graded commutativity
(e*f = (-1)^{|e||f|} f*e and e*e = 0 for odd |e|), degree and multidegree
additivity, and the Leibniz rule.  Products absent from the table are an
*error*, not zero: tables may be deliberately partial.

On top of the table live the associator calculus: associators, alternative
identities, the associator submodule with its per-multidegree homology, the
maximal associative quotient, multiplicators of comparison maps, and homotopy
perturbation of multiplications, by a given homotopy or a seeded random one.
"""

from __future__ import annotations

import random
from functools import reduce

from . import linalg
from .complexes import (UNIT, ComplexError, Element, FreeComplex,
                        subquotient_homology)
from .ring import Polynomial, add_term, mono_divides, mono_mul

SATURATION_ROUNDS = 10      # the round limit of `Submodule.saturate`
# `random_homotopy` holds at most 2 * this many values
HOMOTOPY_ENTRIES = 8


class MDGError(Exception):
    pass


class MissingProductError(MDGError):
    def __init__(self, left: str, right: str):
        super().__init__(f"product {left} * {right} is not defined in the table")
        self.pair = (left, right)


def _bilinear(cx: FreeComplex, pair_value, x: Element, y: Element) -> Element:
    """The sum of c1 c2 pair_value(n1, n2) over the terms c1 n1 of x and
    c2 n2 of y: the bilinear extension of a map given on basis pairs."""
    coeffs: dict = {}
    for n1, c1 in x.coeffs.items():
        for n2, c2 in y.coeffs.items():
            for k, v in pair_value(n1, n2).coeffs.items():
                add_term(coeffs, k, c1 * c2 * v)
    return Element(cx, coeffs)


class Multiplication:
    """Table of basis products for a FreeComplex."""

    def __init__(self, complex_: FreeComplex, name: str = "mu"):
        self.complex = complex_
        self.name = name
        self.table: dict[tuple, Element] = {}
        self._pos = {n: i for i, n in enumerate(complex_.order)}

    def set_product(self, left: str, right: str, value: Element):
        """Store left*right = value, as right*left with the Koszul sign when
        right comes first in basis order.  The unit's products and the odd
        squares are implied: storing either raises MDGError, but for a zero
        odd square."""
        p, q = self._pos.get(left), self._pos.get(right)
        if not (p and q):       # None off the basis, 0 for the unit
            if p is None or q is None:
                raise MDGError(
                    f"unknown basis element in product {left} * {right}")
            raise MDGError("products with the unit are implied, do not store them")
        if p >= q:
            basis = self.complex.basis
            if p > q:
                if basis[left].degree * basis[right].degree % 2:
                    value = -value
                left, right = right, left
            elif value.coeffs and basis[left].degree % 2:
                raise MDGError(f"{left}*{left} is an odd square, implied to "
                               "be 0; it cannot be nonzero")
        self.table[(left, right)] = value

    def product(self, left: str, right: str) -> Element:
        """Product of two basis elements, with unit/commutativity/strictness
        conventions applied; MDGError on a name outside the basis."""
        cx = self.complex
        if left not in cx.basis or right not in cx.basis:
            raise MDGError(f"unknown basis element in product {left} * {right}")
        if left == UNIT:
            return cx.elem(right)
        if right == UNIT:
            return cx.elem(left)
        dl = cx.basis[left].degree
        dr = cx.basis[right].degree
        if left == right and dl % 2 == 1:
            return cx.zero
        sign = 1
        if self._pos[left] > self._pos[right]:
            sign = (-1) ** (dl * dr)
            left, right = right, left
        value = self.table.get((left, right))
        if value is None:
            raise MissingProductError(left, right)
        return value if sign == 1 else -value

    def stored_pairs(self):
        return list(self.table)

    def pairs(self):
        """The pairs (a, b) of non-unit basis elements, a at or before b in
        basis order, that the table can store, in that order: every such
        pair but the odd squares, which are implied."""
        cx = self.complex
        names = [n for n in cx.order if n != UNIT]
        for i, a in enumerate(names):
            # an odd a starts after itself
            for b in names[i + cx.basis[a].degree % 2:]:
                yield a, b

    def degree_problem(self, left: str, right: str, value: Element):
        """Why the product left*right = value is not homogeneous of
        homological degree |left| + |right|; None when it is (zero is)."""
        if value.is_zero():
            return None
        cx = self.complex
        expected = cx.basis[left].degree + cx.basis[right].degree
        degs = value.degrees()
        if degs != {expected}:
            return (f"{left}*{right} lands in degrees {sorted(degs)}, "
                    f"expected {expected}")
        return None

    def mdeg_problem(self, left: str, right: str, value: Element):
        """Why the product left*right = value is not multihomogeneous of
        multidegree mdeg(left) + mdeg(right); None when it is (zero is)."""
        if value.is_zero():
            return None
        cx = self.complex
        expected = mono_mul(cx.basis[left].mdeg, cx.basis[right].mdeg)
        try:
            md = value.multidegree()
        except ComplexError as e:
            return f"{left}*{right}: {e}"
        if md != expected:
            return f"{left}*{right} has multidegree {md}, expected {expected}"
        return None

    def structure_constants(self) -> dict:
        """{(a, b): {d: c_abd}} over every ordered pair of non-unit basis
        elements whose product is defined, with a*b = sum_d c_abd *
        x^(m_a + m_b - m_d) * d and each c_abd a rational (an int when
        integral, else a Fraction); odd squares map to {}.  The one
        precondition check of the scans over Q and of `groebner.mult_ideal`:
        MDGError at the first stored product with a `degree_problem` or an
        `mdeg_problem` (multidegrees are exponent tuples, so a
        multihomogeneous coefficient is a single term)."""
        rows, problems = self._graded_rows()
        if problems:
            kind, problem = next(iter(problems.values()))
            raise MDGError(f"table is not {kind}: product {problem}")
        return rows

    def _graded_rows(self):
        """One pass over the table: the rows of `structure_constants()`,
        each (a, b) row under the table's own key, and {key: (kind,
        problem)} in table order for each nonzero product with a
        `degree_problem` (kind "homogeneous") or else an `mdeg_problem`
        (kind "multihomogeneous").  The rows are valid only when there is
        no problem.  A stored odd square keeps its key's place, but its row
        is that of the product, {}."""
        cx = self.complex
        odd = {n for n, b in cx.basis.items() if b.degree % 2}
        rows, problems = {}, {}
        for key, value in self.table.items():
            left, right = key
            consts = {}
            if value.coeffs:
                problem = self.degree_problem(left, right, value)
                if problem:
                    problems[key] = ("homogeneous", problem)
                else:
                    problem = self.mdeg_problem(left, right, value)
                    if problem:
                        problems[key] = ("multihomogeneous", problem)
                consts = {d: coeff.lead_coeff()
                          for d, coeff in value.coeffs.items()}
            rows[key] = consts
            if left != right:
                if consts and left in odd and right in odd:
                    consts = {d: -c for d, c in consts.items()}
                rows[(right, left)] = consts
        for name in cx.order:
            if name in odd:
                rows[(name, name)] = {}
        return rows, problems

    def q_row(self, consts: dict, left: str, right: str) -> dict:
        """The constants {d: c} of left*right: the `structure_constants()`
        row, or from `product`, which reads the unit's pairs and raises the
        MissingProductError of an undefined one."""
        row = consts.get((left, right))
        if row is None:
            row = {d: c.lead_coeff()
                   for d, c in self.product(left, right).coeffs.items()}
        return row

    def q_mul(self, consts: dict, u: dict, v: dict) -> dict:
        """u*v for rational vectors {name: q} read at multidegrees M and N:
        sum_d q_d x^(M + N - m_d) d, its pairs read in `multiply`'s order."""
        out = {}
        for d, p in u.items():
            for e, q in v.items():
                for f, r in self.q_row(consts, d, e).items():
                    out[f] = out.get(f, 0) + r * p * q
        return out

    def multiply(self, x: Element, y: Element) -> Element:
        return _bilinear(self.complex, self.product, x, y)

    def copy(self, name=None) -> "Multiplication":
        out = Multiplication(self.complex, name or self.name)
        out.table = dict(self.table)
        return out


class MDGAlgebra:
    """A FreeComplex together with a multiplication table."""

    def __init__(self, complex_: FreeComplex, mult: Multiplication):
        if mult.complex is not complex_:
            raise MDGError("multiplication attached to a different complex")
        self.complex = complex_
        self.mult = mult

    # -- convenience --

    @property
    def ring(self):
        return self.complex.ring

    def elem(self, name):
        return self.complex.elem(name)

    def mul(self, x: Element, y: Element) -> Element:
        return self.mult.multiply(x, y)

    def d(self, x: Element) -> Element:
        return self.complex.d(x)

    def basis_names(self):
        return [n for n in self.complex.order if n != UNIT]

    def associator(self, a: Element, b: Element, c: Element) -> Element:
        return self.mul(self.mul(a, b), c) - self.mul(a, self.mul(b, c))

    def associator_names(self, a: str, b: str, c: str) -> Element:
        """[a,b,c] with its inner products read from the table; every name
        is checked by `elem` first."""
        ea, _, ec = self.elem(a), self.elem(b), self.elem(c)
        return (self.mul(self.mult.product(a, b), ec)
                - self.mul(ea, self.mult.product(b, c)))

    # -- axiom checking --

    def check(self) -> "AxiomReport":
        """The complex's `check`, the degree and multidegree of every stored
        product, and Leibniz, d(l*r) = d(l)*r + (-1)^{|l|} l*d(r), on every
        stored product of the right degree; a pair whose Leibniz terms need
        a product the table lacks is skipped.

        The grading problems and the rows of the `structure_constants()`
        come from one pass over the table.  When the complex and every
        stored product pass, every term of the Leibniz defect of l*r lies
        at multidegree m_l + m_r, so it is read from the
        `diff_constants()` and those rows, and becomes an `Element` only in
        a failure message.  Otherwise, and for a stored odd square, whose
        row is the product's zero and not the stored value, the defect is
        computed on `Element`s."""
        return self.table_check(self.complex.check())

    def table_check(self, complex_problems) -> "AxiomReport":
        """`check`, given the complex's `FreeComplex.check()` problems, so
        that `mdg check` checks a complex once for all its tables."""
        report = AxiomReport()
        cx = self.complex
        report.complex_problems = complex_problems
        mc, problems = self.mult._graded_rows()
        off_degree = set()      # no Leibniz check: its terms are off too
        for key, (kind, problem) in problems.items():
            if kind == "homogeneous":
                report.degree_problems.append(problem)
                off_degree.add(key)
            else:
                report.mdeg_problems.append(problem)
        if report.ok():
            dc = cx.diff_constants()

            def defect(l, r):
                if l == r and cx.basis[l].degree % 2:
                    return self._leibniz_defect(l, r)
                v = self._q_leibniz(dc, mc, l, r)
                return self.q_element((l, r), v) if v else cx.zero
        else:
            defect = self._leibniz_defect
        for l, r in self.mult.table:
            if (l, r) in off_degree:
                continue
            try:
                v = defect(l, r)
            except MissingProductError as e:
                report.skipped_leibniz.append((f"{l}*{r}", str(e)))
                continue
            if not v.is_zero():
                report.leibniz_problems.append(
                    f"Leibniz fails for {l}*{r}: d(product) - expected = {v}")
        return report

    def _leibniz_defect(self, l: str, r: str) -> Element:
        """d(l*r) - d(l)*r - (-1)^{|l|} l*d(r) on Elements."""
        cx = self.complex
        lhs = cx.d(self.mult.table[l, r])
        rhs = self.mul(cx.diff.get(l, cx.zero), cx.elem(r))
        term = self.mul(cx.elem(l), cx.diff.get(r, cx.zero))
        rhs = rhs + (term if cx.basis[l].degree % 2 == 0 else -term)
        return lhs - rhs

    def _q_leibniz(self, dc: dict, mc: dict, l: str, r: str) -> dict:
        """The `_leibniz_defect` of a stored pair as {k: q} at multidegree
        m_l + m_r, from the constants dc of d and mc of the table; the
        pairs are read in the Element route's order, so that a partial
        table raises the same MissingProductError."""
        q_row = self.mult.q_row
        out = {}
        for d, c in mc[l, r].items():
            for k, q in dc[d].items():
                out[k] = out.get(k, 0) + c * q
        for k, q in dc[l].items():
            for f, c in q_row(mc, k, r).items():
                out[f] = out.get(f, 0) - q * c
        odd = self.complex.basis[l].degree % 2
        for k, q in dc[r].items():
            for f, c in q_row(mc, l, k).items():
                out[f] = out.get(f, 0) + (q * c if odd else -(q * c))
        return {k: q for k, q in out.items() if q}

    def defined_everywhere(self) -> bool:
        """Is every pair of `Multiplication.pairs` stored?"""
        table = self.mult.table
        return all(pair in table for pair in self.mult.pairs())

    # -- associativity / alternativity --

    def _q_associator(self, consts: dict, a: str, b: str, c: str) -> dict:
        """[a,b,c] = sum_d q_d x^(m_a+m_b+m_c-m_d) d as {d: q}, read from the
        `structure_constants()` in the order of `associator_names`, so that
        a partial table raises the same MissingProductError."""
        mult = self.mult
        out = mult.q_mul(consts, mult.q_row(consts, a, b), {c: 1})
        for d, q in mult.q_mul(consts, {a: 1},
                               mult.q_row(consts, b, c)).items():
            out[d] = out.get(d, 0) - q
        return {d: q for d, q in out.items() if q}

    def q_element(self, factors, vec: dict) -> Element:
        """sum_d q_d x^(M - m_d) d for vec = {d: q}, M the multidegree of
        the product of the basis elements `factors`."""
        cx = self.complex
        return cx.from_constants(
            vec, reduce(mono_mul, (cx.basis[n].mdeg for n in factors)))

    def basis_associators(self, consts: dict):
        """Yield (a, b, c, {d: q}), the `_q_associator` of basis triples in
        lexicographic order with c at or after a: every triple whose
        associator can be nonzero, and every triple whose products a
        partial table may lack.  consts is `structure_constants()`.

        [c,b,a] reads the same stored products as [a,b,c] and, once they
        are defined, equals -(-1)^{|a||b|+|b||c|+|c||a|} [a,b,c].  So the
        first nonzero associator or missing product of the full
        lexicographic scan always has a at or before c, and both scans span
        the same lines.

        A partial table (consts lacks a pair) is scanned in full, so that
        the first MissingProductError is the one the full scan meets; only
        triples whose total degree exceeds the top of the complex are
        skipped.  Their associator vanishes for degree reasons when every
        product lies in degree |a| + |b|, as `structure_constants` checks.
        The basis need not be declared in degree order.

        A complete table yields only the candidates of `_candidates`,
        which are found from the nonzero rows of consts.  Write a*b =
        sum_d c_abd x^(..) d, so that [a,b,c] = sum_d c_abd x^(..) d*c -
        sum_e c_bce x^(..) a*e.  If every d in the support of a*b has
        d*c = 0 and every e in the support of b*c has a*e = 0, both sums
        vanish.  So a triple with a nonzero associator has some such
        d*c != 0 or a*e != 0, and is a candidate.  A candidate lies in the
        full scan too: d*c != 0 with |d| = |a| + |b| (or a*e != 0 with
        |e| = |b| + |c|) puts |a| + |b| + |c| at or below the top.  Both
        enumerations follow the same order, so they yield the same nonzero
        associators in the same order."""
        names = self.basis_names()
        if len(consts) == len(names) ** 2:
            triples = self._candidates(consts, names)
        else:
            triples = self._all_triples(names)
        for a, b, c in triples:
            yield a, b, c, self._q_associator(consts, a, b, c)

    def _all_triples(self, names):
        """The triples (a, b, c), c at or after a, in lexicographic order
        up to the top degree of the complex."""
        maxdeg = self.complex.max_degree()
        degs = [self.complex.basis[n].degree for n in names]
        for i, (a, da) in enumerate(zip(names, degs)):
            for b, db in zip(names, degs):
                if da + db > maxdeg:
                    continue
                for c, dc in zip(names[i:], degs[i:]):
                    if da + db + dc <= maxdeg:
                        yield a, b, c

    def _candidates(self, consts: dict, names):
        """The triples (a, b, c), c at or after a, in lexicographic order,
        with d*c != 0 for some d in the support of a*b or a*e != 0 for some
        e in the support of b*c; consts holds every pair of names.  The
        unit multiplies every element to a nonzero one.  The triples of one
        a are found only when the scan reaches a, so a caller that stops at
        the first witness reads no further."""
        n = len(names)
        pos = {nm: i for i, nm in enumerate(names)}
        # right[d]: the positions of the c with d*c != 0; pairs[e]: the
        # codes j*n + k of the pairs with e in the support of
        # names[j]*names[k]
        right = {d: [] for d in names}
        pairs = {}
        for (b, c), row in consts.items():
            if row:
                k = pos[c]
                right[b].append(k)
                code = pos[b] * n + k
                for e in row:
                    pairs.setdefault(e, []).append(code)
        right[UNIT] = range(n)
        for i, a in enumerate(names):
            found = set()
            for j in right[a]:
                for d in consts[a, names[j]]:
                    found.update(j * n + k for k in right[d] if k >= i)
            for e in (*(names[k] for k in right[a]), UNIT):
                found.update(code for code in pairs.get(e, ())
                             if code % n >= i)
            for code in sorted(found):
                j, k = divmod(code, n)
                yield a, names[j], names[k]

    def associative_on_basis(self):
        """The first nonzero `basis_associators` entry, or None."""
        consts = self.mult.structure_constants()
        for a, b, c, v in self.basis_associators(consts):
            if v:
                return (a, b, c, self.q_element((a, b, c), v))
        return None

    def alternative_on_basis(self):
        """First failure of [a, x, a] = 0 (|a| even) or
        [a,x,a] = (-1)^{|x|} 2 [a,a,x] (|a| odd) over basis pairs, or None."""
        consts = self.mult.structure_constants()
        cx = self.complex
        maxdeg = cx.max_degree()
        for a in self.basis_names():
            da = cx.basis[a].degree
            for x in self.basis_names():
                if 2 * da + cx.basis[x].degree > maxdeg:
                    continue
                v = self._q_associator(consts, a, x, a)
                if da % 2 == 1:
                    scale = 2 * (-1) ** cx.basis[x].degree
                    for d, q in self._q_associator(consts, a, a, x).items():
                        v[d] = v.get(d, 0) - q * scale
                    v = {d: q for d, q in v.items() if q}
                if v:
                    return (a, x, a, self.q_element((a, x, a), v))
        return None

    # -- submodule machinery --

    def associator_submodule(self) -> "Submodule":
        """The saturated span of the nonzero basis associators [a,b,c] in
        lexicographic order; [c,b,a] is the flip in `basis_associators`."""
        consts = self.mult.structure_constants()
        deg = {n: self.complex.basis[n].degree for n in self.basis_names()}
        pos = {n: i for i, n in enumerate(deg)}
        found = {}
        for a, b, c, v in self.basis_associators(consts):
            sign = -(-1) ** (deg[b] * (deg[a] + deg[c]) + deg[a] * deg[c])
            found[c, b, a] = {d: sign * q for d, q in v.items()}
            found[a, b, c] = v
        sub = Submodule(self, [
            (f"[{a},{b},{c}]", self.q_element((a, b, c), v))
            for (a, b, c), v in sorted(found.items(),
                                       key=lambda t: [pos[n] for n in t[0]])
            if v])
        sub.saturate()
        return sub


class AxiomReport:
    def __init__(self):
        self.complex_problems = []
        self.degree_problems = []
        self.mdeg_problems = []
        self.leibniz_problems = []
        self.skipped_leibniz = []

    def ok(self) -> bool:
        return not (self.complex_problems or self.degree_problems
                    or self.mdeg_problems or self.leibniz_problems)

    def all_problems(self):
        return self.complex_problems + self.table_problems()

    def table_problems(self):
        """The problems of the table itself, without its complex's."""
        return self.degree_problems + self.mdeg_problems + self.leibniz_problems

    def summary(self) -> str:
        lines = []
        for p in self.all_problems():
            lines.append(f"FAIL {p}")
        for pair, why in self.skipped_leibniz:
            lines.append(f"SKIP {pair}: {why}")
        if not lines:
            lines.append("all axioms verified")
        return "\n".join(lines)


class Submodule:
    """An MDG submodule given by homogeneous, multihomogeneous generators.

    Component at (degree, mdeg) is the Q-span of monomial shifts of the
    generators; homology is computed per multidegree."""

    def __init__(self, alg: MDGAlgebra, gens):
        self.alg = alg
        self.complex = alg.complex
        self.gens = []          # (label, Element, degree, mdeg)
        self._consts = []       # {k: q} of each generator, as in span_rows
        for label, v in gens:
            self.add_generator(label, v)

    def add_generator(self, label: str, v: Element):
        if v.is_zero():
            return
        self.gens.append((label, v, v.degree(), v.multidegree()))
        self._consts.append({k: c.lead_coeff() for k, c in v.coeffs.items()})

    def degrees(self) -> set:
        return {d for _, _, d, _ in self.gens}

    def inf_degree(self):
        degs = self.degrees()
        return min(degs) if degs else None

    def sup_degree(self):
        degs = self.degrees()
        return max(degs) if degs else None

    def is_zero(self) -> bool:
        return not self.gens

    # -- linear spans --

    def span_rows(self, degree: int, mdeg: tuple):
        """Coordinate rows of the generators' monomial shifts in the
        (degree, mdeg) piece.  A generator of multidegree m is
        sum_k q_k x^(m - m_k) e_k, so its shift by x^(mdeg - m) has row
        (q_k) when every m_k divides mdeg.  Otherwise the coefficient
        q_k x^(mdeg - m_k) of the first e_k outside the piece has a
        denominator, and ComplexError names it."""
        cx = self.complex
        piece = cx.piece_basis(degree, mdeg)
        index = {name: i for i, (name, _) in enumerate(piece)}
        rows = []
        for (_, _, d, m), consts in zip(self.gens, self._consts):
            if d != degree or not mono_divides(m, mdeg):
                continue
            row = [0] * len(piece)
            for k, q in consts.items():
                if k not in index:
                    coeff = cx.from_constants({k: q}, mdeg).coeffs[k]
                    raise ComplexError(f"{coeff} on {k} is not a polynomial")
                row[index[k]] = q
            rows.append(row)
        return rows

    def contains(self, x: Element) -> bool:
        if x.is_zero():
            return True
        d = x.degree()
        m = x.multidegree()
        vec = self.complex.element_vector(x, d, m)
        return linalg.in_span(self.span_rows(d, m), vec)

    # -- closure --

    def saturate(self):
        """Close under multiplication by basis elements (the differential
        closure is automatic and verified by `verify_closed`).  Raises
        MDGError after SATURATION_ROUNDS rounds that each add generators."""
        cx = self.complex
        maxdeg = cx.max_degree()
        names = self.alg.basis_names()
        frontier = list(self.gens)
        for _ in range(SATURATION_ROUNDS):
            new = []
            for a in names:
                da = cx.basis[a].degree
                ea = cx.elem(a)
                for label, v, d, m in frontier:
                    if da + d > maxdeg:
                        continue
                    prod = self.alg.mul(ea, v)
                    if prod.is_zero() or self.contains(prod):
                        continue
                    self.add_generator(f"{a}*{label}", prod)
                    new.append(self.gens[-1])
            if not new:
                return
            frontier = new
        raise MDGError(
            f"submodule closure did not stabilize within the round limit of "
            f"{SATURATION_ROUNDS}: {len(self.gens)} generators reached")

    def verify_closed(self) -> list:
        """Check d-closure and basis-multiplication closure; returns violations."""
        problems = []
        cx = self.complex
        for label, v, d, m in self.gens:
            dv = cx.d(v)
            if not dv.is_zero() and not self.contains(dv):
                problems.append(f"d({label}) escapes the submodule")
        names = self.alg.basis_names()
        maxdeg = cx.max_degree()
        for a in names:
            ea = cx.elem(a)
            for label, v, d, m in self.gens:
                if cx.basis[a].degree + d > maxdeg:
                    continue
                prod = self.alg.mul(ea, v)
                if not prod.is_zero() and not self.contains(prod):
                    problems.append(f"{a}*{label} escapes the submodule")
        return problems

    # -- homology --

    def homology_dims(self) -> dict:
        degs = self.degrees()
        degrees = range(min(degs), max(degs) + 1) if degs else ()
        return subquotient_homology(self.complex, degrees, a=self)

    def homology_class_reps(self, degree: int, mdeg: tuple):
        """Representative Elements of a basis of H_degree at this multidegree.
        Raises ComplexError when the complex fails `FreeComplex.check`."""
        self.complex.require_complex()
        return self._class_reps(self.complex.diff_constants(), degree, mdeg)

    def _class_reps(self, consts: dict, degree: int, mdeg: tuple):
        cx = self.complex
        basis_rows, _ = linalg.rref(self.span_rows(degree, mdeg))
        if not basis_rows:
            return []
        imgs = cx.d_rows(consts, basis_rows, degree, mdeg)
        cycle_combos = linalg.nullspace(_transpose(imgs), len(basis_rows))
        # keep cycle representatives independent modulo the boundaries
        out = []
        acc = cx.d_rows(consts, self.span_rows(degree + 1, mdeg), degree + 1,
                        mdeg)
        for combo in cycle_combos:
            vec = _combine(combo, basis_rows)
            if not linalg.in_span(acc, vec):
                out.append(cx.vector_element(vec, degree, mdeg))
                acc.append(vec)
        return out

    def annihilates_homology(self, r: Polynomial):
        """Does multiplication by the monomial r kill H(submodule)?

        Returns (True, None) or (False, witness description).  Raises
        ComplexError when the complex fails `FreeComplex.check`."""
        if not r.is_monomial():
            raise MDGError("annihilator test expects a monomial")
        rm = r.lead_mono()
        cx = self.complex
        cx.require_complex()
        consts = cx.diff_constants()
        degs = self.degrees()
        for md in cx.mdeg_support():
            target_md = mono_mul(md, rm)
            for i in sorted(degs):
                for rep in self._class_reps(consts, i, md):
                    vec = cx.element_vector(rep.scale(r), i, target_md)
                    boundary_rows = cx.d_rows(consts,
                                              self.span_rows(i + 1, target_md),
                                              i + 1, target_md)
                    if not linalg.in_span(boundary_rows, vec):
                        return False, f"class in degree {i} survives multiplication"
        return True, None


def _transpose(rows):
    if not rows:
        return []
    return [list(col) for col in zip(*rows)]


def _combine(combo, rows):
    n = len(rows[0])
    out = [0] * n
    for c, row in zip(combo, rows):
        if c:
            for j in range(n):
                out[j] += c * row[j]
    return out


# -- quotient by the associator submodule --

def quotient_homology_dims(alg: MDGAlgebra, sub: Submodule) -> dict:
    """Homology dimensions of the quotient complex F/S in degrees >= 1 over
    the multidegree support.  Degree 0 (the cyclic module R/I) is excluded:
    it is not finite dimensional."""
    cx = alg.complex
    return subquotient_homology(cx, range(1, cx.max_degree() + 1), b=sub)


# -- chain maps and multiplicators --

class ChainMap:
    """Homogeneous map of the given degree between complexes, given on basis
    elements and extended R-linearly.  Where no value is given, a map of
    nonzero degree (a homotopy) is zero and one of degree 0 maps the unit to
    the unit; any other value is missing."""

    def __init__(self, source: FreeComplex, target: FreeComplex, name="phi",
                 degree=0):
        self.source = source
        self.target = target
        self.name = name
        self.degree = degree
        self.images: dict[str, Element] = {}

    def set_image(self, name: str, value: Element):
        if name not in self.source.basis:
            raise MDGError(f"unknown source basis element {name!r}")
        self.images[name] = value

    def image(self, name: str) -> Element:
        value = self.images.get(name)
        if value is not None:
            return value
        if self.degree:
            return self.target.zero
        if name == UNIT:
            return self.target.one
        raise MDGError(f"map {self.name} has no value on {name!r}")

    def apply(self, x: Element) -> Element:
        coeffs: dict = {}
        for name, coeff in x.coeffs.items():
            for k, v in self.image(name).coeffs.items():
                add_term(coeffs, k, coeff * v)
        return Element(self.target, coeffs)

    def check_chain_map(self) -> list:
        problems = []
        for name in self.source.order:
            if name == UNIT:
                continue
            lhs = self.apply(self.source.diff.get(name, self.source.zero))
            rhs = self.target.d(self.image(name))
            if not (lhs - rhs).is_zero():
                problems.append(f"{self.name} fails to commute with d at {name}")
        return problems

    def is_homotopy_between(self, phi: "ChainMap", psi: "ChainMap") -> bool:
        """d h + h d = phi - psi on every basis element, h this map of
        degree 1."""
        if self.degree != 1:
            return False
        src, dst = self.source, self.target
        for n in src.order:
            lhs = dst.d(self.image(n)) + self.apply(src.diff.get(n, src.zero))
            if not (lhs - (phi.image(n) - psi.image(n))).is_zero():
                return False
        return True

    def compose(self, other: "ChainMap") -> "ChainMap":
        """self after other, of the sum of their degrees."""
        if other.target is not self.source:
            raise MDGError("composition mismatch")
        out = ChainMap(other.source, self.target, f"{self.name}.{other.name}",
                       self.degree + other.degree)
        for name in other.source.order:
            out.set_image(name, self.apply(other.image(name)))
        return out


def multiplicator(phi: ChainMap, src: MDGAlgebra, dst: MDGAlgebra,
                  a: Element, x: Element) -> Element:
    """[a, x]_phi = phi(a * x) - phi(a) * phi(x) for unital phi: src -> dst."""
    return phi.apply(src.mul(a, x)) - dst.mul(phi.apply(a), phi.apply(x))


def two_multiplicator(phi: ChainMap, src: MDGAlgebra, dst: MDGAlgebra,
                      a1: Element, a2: Element, x: Element) -> Element:
    """[a1, a2, x]_phi = phi([a1,a2,x]) - [a1,a2,phi(x)] where the target
    associator uses the src-module structure through phi."""
    first = phi.apply(src.associator(a1, a2, x))
    fa1, fa2, fx = phi.apply(a1), phi.apply(a2), phi.apply(x)
    second = dst.mul(phi.apply(src.mul(a1, a2)), fx) - dst.mul(fa1, dst.mul(fa2, fx))
    return first - second


def is_multiplicative(phi: ChainMap, src: MDGAlgebra, dst: MDGAlgebra):
    """First basis pair with nonzero multiplicator, or None."""
    for a in src.complex.order:
        for x in src.complex.order:
            if UNIT in (a, x):
                continue
            v = multiplicator(phi, src, dst, src.elem(a), src.elem(x))
            if not v.is_zero():
                return (a, x, v)
    return None


# -- homotopies and perturbation --

class Homotopy:
    """Degree +1 map F (x) F -> F given on basis pairs; absent pairs are 0."""

    def __init__(self, complex_: FreeComplex, name="h"):
        self.complex = complex_
        self.name = name
        self.table: dict[tuple, Element] = {}

    def set_value(self, left: str, right: str, value: Element):
        if left not in self.complex.basis or right not in self.complex.basis:
            raise MDGError(f"unknown basis element in homotopy pair {left}|{right}")
        self.table[(left, right)] = value

    def pair_value(self, left: str, right: str) -> Element:
        return self.table.get((left, right), self.complex.zero)

    def apply_pair(self, x: Element, y: Element) -> Element:
        return _bilinear(self.complex, self.pair_value, x, y)

    def apply_d_tensor(self, xn: str, yn: str) -> Element:
        """h(d(x (x) y)) = h(dx, y) + (-1)^{|x|} h(x, dy) on basis elements."""
        cx = self.complex
        dx = cx.diff.get(xn, cx.zero)
        dy = cx.diff.get(yn, cx.zero)
        acc = self.apply_pair(dx, cx.elem(yn))
        term = self.apply_pair(cx.elem(xn), dy)
        if cx.basis[xn].degree % 2 == 1:
            term = -term
        return acc + term


def perturb_multiplication(alg: MDGAlgebra, h: Homotopy, name=None) -> Multiplication:
    """mu_h = mu + d h + h d on basis pairs: a new multiplication table."""
    cx = alg.complex
    out = Multiplication(cx, name or f"{alg.mult.name}_h")
    for a, b in out.pairs():
        try:
            base = alg.mult.product(a, b)
        except MissingProductError:
            continue
        val = base + cx.d(h.pair_value(a, b)) + h.apply_d_tensor(a, b)
        out.set_product(a, b, val)
    return out


def random_homotopy(alg: MDGAlgebra, seed: int) -> Homotopy:
    """A graded-symmetric degree +1 pairing vanishing on odd diagonals, with
    small random values landing in the right degrees.  h(a, b) is
    c*x^(m_a + m_b - m_t)*t for a target t whose multidegree m_t divides
    m_a + m_b, so h respects the multigrading.  The same seed draws the
    same table.  It holds at most 2 * HOMOTOPY_ENTRIES values: a draw with
    a != b stores two, and a draw that would pass the bound is not stored
    and ends the drawing."""
    cx = alg.complex
    rng = random.Random(seed)
    h = Homotopy(cx, f"h{seed}")
    names = alg.basis_names()
    maxdeg = cx.max_degree()
    tries = 0
    while len(h.table) < 2 * HOMOTOPY_ENTRIES and tries < 200:
        tries += 1
        a = rng.choice(names)
        b = rng.choice(names)
        da, db = cx.basis[a].degree, cx.basis[b].degree
        if a == b and da % 2 == 1:
            continue
        if (a, b) in h.table or da + db + 1 > maxdeg:
            continue
        mab = mono_mul(cx.basis[a].mdeg, cx.basis[b].mdeg)
        targets = [t for t in cx.names_in_degree(da + db + 1)
                   if mono_divides(cx.basis[t].mdeg, mab)]
        if not targets:
            continue
        if len(h.table) + (1 if a == b else 2) > 2 * HOMOTOPY_ENTRIES:
            break       # storing h(a, b) and h(b, a) would pass the bound
        t = rng.choice(targets)
        value = cx.from_constants({t: rng.randint(1, 3)}, mab)
        h.set_value(a, b, value)
        sign = 1 if (da * db) % 2 == 0 else -1
        if a != b:
            h.set_value(b, a, value.scale(sign))
    return h
