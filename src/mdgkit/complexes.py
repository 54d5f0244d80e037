"""Multigraded free chain complexes over a polynomial ring.

A complex is a finite free R-module with homogeneous basis elements carrying
a homological degree and a multidegree (exponent tuple of a monomial of R).
Degree 0 is spanned by the unit basis element "1".  Elements are finite
R-linear combinations of basis elements; the per-multidegree components are
finite dimensional Q-vector spaces, which is where all homology happens.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iproduct

from . import linalg
from .ring import (Ring, add_term, format_polynomial, laurent_term, mono_div,
                   mono_divides, mono_lcm, mono_mul, rational)

UNIT = "1"


class ComplexError(Exception):
    pass


class BasisElement:
    __slots__ = ("name", "degree", "mdeg")

    def __init__(self, name: str, degree: int, mdeg: tuple):
        self.name = name
        self.degree = degree
        self.mdeg = mdeg

    def __repr__(self):
        return f"BasisElement({self.name}, deg={self.degree})"


class Element:
    """R-linear combination of basis elements of a fixed complex.

    Coefficients are polynomials or Laurent polynomials (they mix freely);
    `ring.py` owns their types, and this module only asks them questions."""

    __slots__ = ("complex", "coeffs")

    def __init__(self, complex_: "FreeComplex", coeffs: dict):
        self.complex = complex_
        self.coeffs = {k: v for k, v in coeffs.items() if not v.is_zero()}

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        if not isinstance(other, Element) or other.complex is not self.complex:
            return NotImplemented
        coeffs = dict(self.coeffs)
        for k, v in other.coeffs.items():
            add_term(coeffs, k, v)
        return Element(self.complex, coeffs)

    def __neg__(self):
        return Element(self.complex, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self + (-other)

    def scale(self, c) -> "Element":
        if isinstance(c, (int, Fraction)):
            c = self.complex.ring.const(c)
        if c.is_zero():
            return self.complex.zero
        return Element(self.complex, {k: c * v for k, v in self.coeffs.items()})

    def degrees(self) -> set:
        return {self.complex.basis[k].degree for k in self.coeffs}

    def degree(self) -> int:
        degs = self.degrees()
        if len(degs) != 1:
            raise ComplexError(f"element is not homogeneous: degrees {sorted(degs)}")
        return degs.pop()

    def is_polynomial(self) -> bool:
        return all(v.is_polynomial() for v in self.coeffs.values())

    def polynomialize(self) -> "Element":
        """Every coefficient as a Polynomial; ValueError on a denominator."""
        return Element(self.complex, {k: v.as_polynomial()
                                      for k, v in self.coeffs.items()})

    def multidegree(self):
        """Common multidegree of all terms; raises if mixed.  A Laurent
        coefficient num/x^a counts as the terms of num shifted by -a."""
        mds = set()
        for k, v in self.coeffs.items():
            base = self.complex.basis[k].mdeg
            for m in v.exponents():
                mds.add(mono_mul(m, base))
        if len(mds) != 1:
            raise ComplexError(f"element not multihomogeneous: {sorted(mds)}")
        return mds.pop()

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.complex is other.complex and (self - other).is_zero()

    def __str__(self):
        return self.complex.format_element(self)

    def __repr__(self):
        return f"<elt {self}>"


class FreeComplex:
    """Finite multigraded free complex with chosen homogeneous basis."""

    def __init__(self, ring: Ring, name: str = "F"):
        self.ring = ring
        self.name = name
        self.basis: dict[str, BasisElement] = {}
        self.order: list[str] = []
        self._in_degree: dict[int, list[str]] = {}     # degree -> names
        self.diff: dict[str, Element] = {}
        self.add_basis(UNIT, 0, ring.zero_mono)
        self.zero = Element(self, {})

    # -- construction --

    def add_basis(self, name: str, degree: int, mdeg: tuple):
        if name in self.basis:
            raise ComplexError(f"duplicate basis element {name!r}")
        if degree < 0:
            raise ComplexError("negative homological degree")
        self.basis[name] = BasisElement(name, degree, mdeg)
        self.order.append(name)
        self._in_degree.setdefault(degree, []).append(name)

    def set_diff(self, name: str, value: Element):
        if name not in self.basis:
            raise ComplexError(f"unknown basis element {name!r}")
        self.diff[name] = value

    # -- elements --

    def elem(self, name: str) -> Element:
        if name not in self.basis:
            raise ComplexError(f"unknown basis element {name!r}")
        return Element(self, {name: self.ring.one})

    def element(self, coeffs: dict) -> Element:
        out = {}
        for k, v in coeffs.items():
            if k not in self.basis:
                raise ComplexError(f"unknown basis element {k!r}")
            if isinstance(v, (int, Fraction)):
                v = self.ring.const(v)
            out[k] = v
        return Element(self, out)

    @property
    def one(self) -> Element:
        return self.elem(UNIT)

    def max_degree(self) -> int:
        return max(b.degree for b in self.basis.values())

    def names_in_degree(self, degree: int):
        """The basis names of the degree, in declaration order: a list kept
        by `add_basis`, the one writer of `basis` and `order`, which the
        caller must not write."""
        return self._in_degree.get(degree, [])

    # -- differential --

    def d(self, x: Element) -> Element:
        coeffs: dict = {}
        for name, coeff in x.coeffs.items():
            dn = self.diff.get(name)
            if dn is not None:
                for k, v in dn.coeffs.items():
                    add_term(coeffs, k, coeff * v)
        return Element(self, coeffs)

    # -- structural checks --

    def check(self) -> list:
        """Verify d is defined, degree -1, multidegree 0, polynomial, and
        d^2 = 0.

        Returns a list of human-readable violation strings (empty = good)."""
        problems = []
        for name in self.order:
            b = self.basis[name]
            if b.degree == 0:
                if name in self.diff and not self.diff[name].is_zero():
                    problems.append(f"d({name}) must vanish in degree 0")
                continue
            dn = self.diff.get(name)
            if dn is None:
                problems.append(f"d({name}) is not defined")
                continue
            if dn.is_zero():
                continue
            degs = dn.degrees()
            if degs != {b.degree - 1}:
                problems.append(f"d({name}) has degrees {sorted(degs)}, expected {b.degree - 1}")
                continue
            try:
                md = dn.multidegree()
                if md != b.mdeg:
                    problems.append(f"d({name}) has multidegree {md}, expected {b.mdeg}")
            except ComplexError as e:
                problems.append(f"d({name}): {e}")
            problems.extend(f"d({name}): {v} on {k} is not a polynomial"
                            for k, v in dn.coeffs.items()
                            if not v.is_polynomial())
            dd = self.d(dn)
            if not dd.is_zero():
                problems.append(f"d^2({name}) = {dd} != 0")
        return problems

    # -- multidegree components --

    def mdeg_bound(self) -> tuple:
        acc = self.ring.zero_mono
        for b in self.basis.values():
            acc = mono_lcm(acc, b.mdeg)
        return acc

    def mdeg_support(self):
        """All divisors of the componentwise lcm of basis multidegrees."""
        bound = self.mdeg_bound()
        ranges = [range(e + 1) for e in bound]
        return [tuple(t) for t in iproduct(*ranges)]

    def piece_basis(self, degree: int, mdeg: tuple):
        """Q-basis of the (degree, mdeg) component: (name, cofactor) pairs
        standing for x^cofactor * e_name."""
        out = []
        for name in self.names_in_degree(degree):
            b = self.basis[name]
            if mono_divides(b.mdeg, mdeg):
                out.append((name, mono_div(mdeg, b.mdeg)))
        return out

    def element_vector(self, x: Element, degree: int, mdeg: tuple, piece=None):
        """Coordinates of the (degree, mdeg) part of x in the piece basis.

        Terms of other degrees or multidegrees are dropped without a word,
        which is why `subquotient_homology` checks the complex first.  A
        coefficient with a denominator raises ComplexError."""
        if piece is None:
            piece = self.piece_basis(degree, mdeg)
        index = {p: i for i, p in enumerate(piece)}
        vec = [0] * len(piece)
        for name, coeff in x.coeffs.items():
            b = self.basis[name]
            if b.degree != degree:
                continue
            if not coeff.is_polynomial():
                raise ComplexError(f"{coeff} on {name} is not a polynomial")
            for m, c in coeff.as_polynomial().terms.items():
                if mono_mul(m, b.mdeg) != mdeg:
                    continue
                vec[index[(name, m)]] += c
        return vec

    def vector_element(self, vec, degree: int, mdeg: tuple, piece=None) -> Element:
        """The Element of coordinates vec in the (degree, mdeg) piece basis;
        a piece holds each basis element once."""
        if piece is None:
            piece = self.piece_basis(degree, mdeg)
        return self.from_constants(
            {name: c for (name, _), c in zip(piece, vec)}, mdeg)

    def from_constants(self, vec: dict, mdeg: tuple) -> Element:
        """sum_k q_k x^(mdeg - m_k) e_k for a rational vector vec = {k: q_k}
        read at multidegree mdeg, zero q_k dropped: the one builder of
        Elements from constants (`diff_constants()`, `lift_on_pieces`, the
        structure constants).  A coefficient is the `Ring.monomial` where
        m_k divides mdeg, else the Laurent monomial `ring.laurent_term`."""
        coeffs = {}
        for k, q in vec.items():
            if q:
                e = mono_div(mdeg, self.basis[k].mdeg)
                coeffs[k] = (self.ring.monomial(e, q) if min(e, default=0) >= 0
                             else laurent_term(self.ring, q, e))
        return Element(self, coeffs)

    def require_complex(self) -> None:
        """Raise ComplexError naming the first problem `check` finds: ranks
        of a map that is not a differential of multidegree 0 are not
        homology."""
        problems = self.check()
        if problems:
            raise ComplexError(f"not a complex: {problems[0]}")

    def diff_constants(self) -> dict:
        """{n: {k: q_nk}} over the basis, with d(e_n) = sum_k q_nk *
        x^(m_n - m_k) * e_k and each q_nk a rational (an int when integral,
        else a Fraction); {} where d is zero or undefined.  Reads no
        coefficient beyond its constant, so its one precondition is
        `require_complex`: once d is polynomial of multidegree 0, each
        coefficient is the single term q_nk * x^(m_n - m_k), and m_k divides
        m_n.  In every (degree, mdeg) piece the matrix of d is then (q_nk),
        restricted to the basis elements whose multidegree divides mdeg."""
        return {name: {k: v.lead_coeff() for k, v in
                       self.diff.get(name, self.zero).coeffs.items()}
                for name in self.order}

    def d_rows(self, consts: dict, rows, degree: int, mdeg: tuple):
        """Images under d of coordinate rows of the (degree, mdeg) piece, as
        coordinate rows of the (degree-1, mdeg) piece, read from the
        `diff_constants()` consts: a piece holds each basis element once."""
        piece = self.piece_basis(degree, mdeg)
        target = {name: i for i, (name, _) in
                  enumerate(self.piece_basis(degree - 1, mdeg))}
        out = []
        for r in rows:
            vec = [0] * len(target)
            for (name, _), c in zip(piece, r):
                if c:
                    for k, q in consts[name].items():
                        vec[target[k]] += c * q
            out.append(vec)
        return out

    def diff_matrix(self, degree: int, mdeg: tuple):
        """Rows = images under d of the piece basis vectors, as coordinate
        vectors in the (degree-1, mdeg) piece.  Raises ComplexError when
        `check` finds a problem."""
        self.require_complex()
        piece = self.piece_basis(degree, mdeg)
        rows = self.d_rows(self.diff_constants(), _unit_rows(len(piece)),
                           degree, mdeg)
        return rows, piece, self.piece_basis(degree - 1, mdeg)

    def homology_dims(self) -> dict:
        """dict degree -> total Q-dimension of homology over the
        multidegrees of `mdeg_support`."""
        return subquotient_homology(self, range(self.max_degree() + 1))

    # -- printing --

    def format_element(self, x: Element) -> str:
        if x.is_zero():
            return "0"
        chunks = []
        first = True
        for name in self.order:
            if name not in x.coeffs:
                continue
            chunks.append(_format_term(x.coeffs[name], name, first))
            first = False
        return " ".join(chunks)


def lift_on_pieces(cx: FreeComplex, labels, boundary: dict,
                   constraints=None) -> dict:
    """{label: {name: q}}: for each (label, degree, mdeg) of `labels`, an
    element x = sum_t q_t x^(mdeg - m_t) e_t of the (degree, mdeg) piece
    with d(x) = boundary[label], a rational vector {name: q} read at mdeg
    (missing means 0).  Zero coordinates are left out.

    The unknowns of a label are the q_t of the names t of
    `cx.names_in_degree(degree)` whose multidegree divides mdeg, in basis
    order.  Its rows are d read from `diff_constants()`, one per target
    name, and the rows of `constraints`, pairs (row, rhs) that ask
    sum q * q_t = rhs for row = {(label, t): q}.  A key of a row that is
    not an unknown is a coordinate that is 0, and drops out; a row that
    then touches the unknowns of two labels raises ComplexError rather
    than being split.  Each label is solved by `linalg.solve` on its own,
    free coordinates 0.  Since no row couples two labels, that is the
    solution of all labels solved at once, in any column order that keeps
    each label's columns in basis order.  Raises ComplexError naming the
    first label, in `labels` order, without a solution, and at a
    constraint row with no unknown and a nonzero rhs."""
    cx.require_complex()
    consts = cx.diff_constants()
    unknowns = {label: [t for t in cx.names_in_degree(degree)
                        if mono_divides(cx.basis[t].mdeg, mdeg)]
                for label, degree, mdeg in labels}
    extra = {label: [] for label in unknowns}
    for row, rhs in constraints or ():
        touched = {}
        for (label, t), q in row.items():
            if q and t in unknowns.get(label, ()):
                touched.setdefault(label, {})[t] = q
        if len(touched) > 1:
            raise ComplexError(f"a constraint row touches the unknowns of "
                               f"{', '.join(map(str, touched))}")
        if touched:
            (label, coords), = touched.items()
            extra[label].append((coords, rhs))
        elif rhs:
            raise ComplexError(f"a constraint row with no unknown asks "
                               f"0 = {rhs}")
    out = {}
    for label, degree, mdeg in labels:
        cols = unknowns[label]
        want = boundary.get(label, {})
        targets = dict.fromkeys(want)
        for t in cols:
            targets.update(dict.fromkeys(consts[t]))
        rows = [[consts[t].get(k, 0) for t in cols] for k in targets]
        rhs = [want.get(k, 0) for k in targets]
        for coords, b in extra[label]:
            rows.append([coords.get(t, 0) for t in cols])
            rhs.append(b)
        u = linalg.solve(rows, rhs, len(cols))
        if u is None:
            raise ComplexError(f"no lift of {label}: no element of degree "
                               f"{degree} and multidegree {mdeg} meets its "
                               f"boundary and constraints")
        out[label] = {t: rational(q) for t, q in zip(cols, u) if q}
    return out


def subquotient_homology(cx: FreeComplex, degrees, a=None, b=None) -> dict:
    """dict i -> dim H_i(A/B) for each i in `degrees`, summed over the
    multidegrees of `cx.mdeg_support()`, for subcomplexes B of A of cx.

    A and B are `mdg.Submodule`s, read through their generators'
    multidegrees and `span_rows`; A defaults to all of cx and B to 0.  Per
    multidegree the count is dim A_i - dim B_i - r_i - r_{i+1}, where
    r_i = rank(d(A_i) + B_{i-1}) - rank(B_{i-1}) is the rank of the induced
    map A_i/B_i -> A_{i-1}/B_{i-1}.  Raises ComplexError when `cx.check()`
    finds a problem: the ranks of a map that is not a differential of
    multidegree 0 are not homology.

    Every matrix at multidegree m is read from rational constants: `d_rows`
    from those of the basis elements whose multidegree divides m, and
    `span_rows` from those of the generators whose multidegree divides m.
    So the count at m is a function of that set of basis elements and
    generators, its key, and it is computed once per key: at the key's
    first multidegree in support order, and added for every multidegree
    that shares it.  The first ComplexError is raised where a loop over
    every multidegree would raise it."""
    cx.require_complex()
    dims = dict.fromkeys(degrees, 0)
    if not dims:
        return dims
    consts = cx.diff_constants()
    lo, hi = min(dims), max(dims)
    mdegs = [cx.basis[name].mdeg for name in cx.order]
    for sub in (a, b):
        if sub is not None:
            mdegs += [m for _, _, _, m in sub.gens]
    counts = {}
    for md, key in _divisor_keys(cx, mdegs):
        count = counts.get(key)
        if count is None:
            count = counts[key] = _piece_homology(cx, consts, lo, hi, a, b,
                                                  md)
        for i, n in count.items():
            dims[i] += n
    return dims


def _piece_homology(cx, consts, lo, hi, a, b, md) -> dict:
    """dict i -> dim H_i(A/B) at multidegree md, for lo <= i <= hi."""
    b_rows = {i: b.span_rows(i, md) if b is not None else []
              for i in range(lo - 1, hi + 1)}
    b_dim = {i: _rank(rows) for i, rows in b_rows.items()}
    a_rows = {i: a.span_rows(i, md) if a is not None else
              _unit_rows(len(cx.piece_basis(i, md)))
              for i in range(lo, hi + 2)}
    r = {i: _rank(cx.d_rows(consts, rows, i, md) + b_rows[i - 1])
         - b_dim[i - 1] if rows and i > 0 else 0
         for i, rows in a_rows.items()}
    return {i: (_rank(a_rows[i]) if a is not None else len(a_rows[i]))
            - b_dim[i] - r[i] - r[i + 1] for i in range(lo, hi + 1)}


def _divisor_keys(cx: FreeComplex, mdegs):
    """(md, key) for each md of `cx.mdeg_support()`, in its order, with key
    the bitmask of the `mdegs` that divide md: the AND over the variables j
    of the mask of the mdegs whose j-th exponent is at most md's, tabulated
    once per variable and exponent."""
    below = [[sum(1 << k for k, m in enumerate(mdegs) if m[j] <= t)
              for t in range(top + 1)]
             for j, top in enumerate(cx.mdeg_bound())]
    full = (1 << len(mdegs)) - 1
    for md in cx.mdeg_support():
        key = full
        for column, t in zip(below, md):
            key &= column[t]
        yield md, key


def _rank(rows) -> int:
    return linalg.rank(rows) if rows else 0


def _unit_rows(n: int):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _format_term(coeff, name: str, first: bool) -> str:
    if coeff.is_polynomial() and coeff.is_monomial():
        coeff = coeff.as_polynomial()
        neg = coeff.lead_coeff() < 0
        body = format_polynomial(-coeff if neg else coeff)
    else:
        body, neg = f"({coeff})", False
    if name != UNIT:
        if body == "1":
            body = name
        else:
            body = f"{body}*{name}"
    if first:
        return ("-" if neg else "") + body
    return ("- " if neg else "+ ") + body
