"""Standard constructions: Taylor algebras of monomial ideals, transported
multiplications along comparison maps, mapping-cone extensions, wedge sums.
"""

from __future__ import annotations

from itertools import combinations

from .complexes import UNIT, Element, FreeComplex
from .mdg import (ChainMap, MDGAlgebra, MDGError, MissingProductError,
                  Multiplication)
from .ring import Polynomial, Ring, mono_div, mono_lcm, mono_mul

# `subset_name` is one-to-one up to 11 generators; at 12, {1, 2} and {12}
# are both e12
TAYLOR_GENERATORS = 11


def subset_name(sigma) -> str:
    return "e" + "".join(str(i + 1) for i in sigma)


def _generator_exponent(ring: Ring, m) -> tuple:
    """The exponent tuple of a Taylor generator, given as a monic monomial
    or as a tuple; MDGError unless it has one non-negative int per
    variable of the ring."""
    if isinstance(m, Polynomial):
        if not m.is_monomial() or m.lead_coeff() != 1:
            raise MDGError(f"expected a monic monomial, got {m}")
        expts = m.lead_mono()
    else:
        expts = tuple(m)
    if len(expts) != ring.nvars:
        raise MDGError(f"expected an exponent tuple of length {ring.nvars}, "
                       f"got {expts}")
    for e in expts:
        if type(e) is not int or e < 0:
            raise MDGError(f"expected non-negative integer exponents, got "
                           f"{e!r} in {expts}")
    return expts


def taylor_algebra(ring: Ring, monomials, name: str = "T") -> MDGAlgebra:
    """The Taylor complex of a list of monomials m_1..m_g, with its
    multiplication e_sigma * e_tau = sign * (m_sigma m_tau / m_{sigma u tau})
    e_{sigma u tau} for disjoint subsets and 0 otherwise, where m_sigma is
    the lcm of the m_i, i in sigma.

    A subset sigma of the generator indices 0..g-1 is the int bitmask with
    bit i set for each i in sigma; `subset_name` names it by the 1-based
    indices.  The basis runs through the subsets by size, then
    lexicographically (the order of `itertools.combinations`), and the
    table stores the pairs sigma <= tau in that order.  Each subset's name
    and multidegree are computed once: m_sigma is the lcm of
    m_(sigma minus its lowest index) and that index's monomial.
    d(e_sigma) has one term per set bit i, at the subset with bit i
    cleared, with the sign (-1)^(number of bits of sigma below i).  sigma
    and tau are disjoint when sigma & tau == 0, and their union is
    sigma | tau.  The sign of the product is that of sorting sigma followed
    by tau: (-1)^k with k = #{(i, j) in sigma x tau : i > j}
    = sum over i in sigma of popcount(tau & (2^i - 1)).  Parity of
    popcount is additive over XOR, so k is odd exactly when
    popcount(tau & below_sigma) is, below_sigma being the XOR over i in
    sigma of 2^i - 1.

    More than TAYLOR_GENERATORS monomials raise MDGError before anything
    is built."""
    expts = [_generator_exponent(ring, m) for m in monomials]
    g = len(expts)
    if g > TAYLOR_GENERATORS:
        raise MDGError(f"a Taylor algebra takes at most {TAYLOR_GENERATORS} "
                       f"generators, got {g}: its basis names e<indices> "
                       f"would collide")
    cx = FreeComplex(ring, name)
    masks, names = [], []
    name_of, mdeg, below = {0: UNIT}, {0: ring.zero_mono}, {0: 0}
    for size in range(1, g + 1):
        for sigma in combinations(range(g), size):
            s = sum(1 << i for i in sigma)
            low = s & -s
            mdeg[s] = mono_lcm(mdeg[s ^ low], expts[sigma[0]])
            below[s] = below[s ^ low] ^ (low - 1)
            name_of[s] = subset_name(sigma)
            masks.append(s)
            names.append(name_of[s])
            cx.add_basis(name_of[s], size, mdeg[s])
    for s in masks:
        coeffs, sign, rest = {}, 1, s
        while rest:
            bit = rest & -rest
            rest ^= bit
            face = s ^ bit
            coeffs[name_of[face]] = ring.monomial(
                mono_div(mdeg[s], mdeg[face]), sign)
            sign = -sign
        cx.set_diff(name_of[s], cx.element(coeffs))
    mult = Multiplication(cx, f"{name}_mult")
    set_product, zero = mult.set_product, cx.zero
    for k, s in enumerate(masks):
        left, m_s, below_s = names[k], mdeg[s], below[s]
        if s.bit_count() % 2 == 0:
            set_product(left, left, zero)    # odd squares are implied
        for t, right in zip(masks[k + 1:], names[k + 1:]):
            if s & t:
                set_product(left, right, zero)
                continue
            u = s | t
            ratio = mono_div(mono_mul(m_s, mdeg[t]), mdeg[u])
            sign = -1 if (t & below_s).bit_count() % 2 else 1
            set_product(left, right, cx.element(
                {name_of[u]: ring.monomial(ratio, sign)}))
    return MDGAlgebra(cx, mult)


def transport_multiplication(target: FreeComplex, source: MDGAlgebra,
                             iota: ChainMap, pi: ChainMap,
                             name: str = "mu") -> Multiplication:
    """Pull the multiplication of `source` onto `target` along a splitting:
    a * b := pi(iota(a) * iota(b)), with iota: target -> source and
    pi: source -> target, pi iota = id.  Raises if a transported product has
    a genuine denominator."""
    if iota.source is not target or iota.target is not source.complex:
        raise MDGError("iota must map the target complex into the source algebra")
    if pi.source is not source.complex or pi.target is not target:
        raise MDGError("pi must map the source algebra onto the target complex")
    mult = Multiplication(target, name)
    for a, b in mult.pairs():
        value = pi.apply(source.mul(iota.image(a), iota.image(b)))
        if not value.is_polynomial():
            raise MDGError(f"transported product {a}*{b} is not polynomial: {value}")
        mult.set_product(a, b, value.polynomialize())
    return mult


def check_splitting(iota: ChainMap, pi: ChainMap) -> list:
    problems = []
    problems += [f"iota: {p}" for p in iota.check_chain_map()]
    problems += [f"pi: {p}" for p in pi.check_chain_map()]
    comp = pi.compose(iota)
    for name in iota.source.order:
        if name == UNIT:
            continue
        if not (comp.image(name) - iota.source.elem(name)).is_zero():
            problems.append(f"pi(iota({name})) != {name}")
    return problems


def mapping_cone_extension(alg: MDGAlgebra, r: Polynomial,
                           prefix: str = "E", name=None) -> MDGAlgebra:
    """Extend (F, mu) to F + eF where e is an exterior generator with d(e)=r:
    d(a + eb) = d(a) + r b - e d(b) and
    (a + eb)(c + ed) = ac + e(bc + (-1)^{|a|} ad)."""
    cx = alg.complex
    ring = cx.ring
    if not r.is_monomial():
        raise MDGError("cone extension expects a monomial")
    rm = r.lead_mono()
    out = FreeComplex(ring, name or f"{cx.name}+{prefix}")

    def cone_name(b: str) -> str:
        return prefix if b == UNIT else f"{prefix}_{b}"

    for n in cx.order:
        if n != UNIT:
            out.add_basis(n, cx.basis[n].degree, cx.basis[n].mdeg)
    for n in cx.order:
        out.add_basis(cone_name(n), cx.basis[n].degree + 1,
                      mono_mul(rm, cx.basis[n].mdeg))

    def carry(x: Element) -> Element:
        return Element(out, dict(x.coeffs))

    def lift(x: Element) -> Element:
        return Element(out, {cone_name(k): v for k, v in x.coeffs.items()})

    for n in cx.order:
        db = cx.diff.get(n, cx.zero)
        if n != UNIT:
            out.set_diff(n, carry(db))
        out.set_diff(cone_name(n), carry(cx.elem(n)).scale(r) - lift(db))

    mult = Multiplication(out, name or f"{alg.mult.name}+{prefix}")
    for (a, b), v in alg.mult.table.items():
        mult.set_product(a, b, carry(v))
    names = [n for n in cx.order]
    for a in names:
        da = cx.basis[a].degree
        for b in names:
            if a == UNIT:
                continue  # unit products implied (E_b = 1 * E_b)
            # a * (e b) = (-1)^{|a|} e (a b)
            try:
                prod = alg.mult.product(a, b)
            except MissingProductError:
                continue  # partial base table: leave the cone product missing
            value = lift(prod) if da % 2 == 0 else -lift(prod)
            mult.set_product(a, cone_name(b), value)
    for a in names:
        for b in names:
            ca, cb = cone_name(a), cone_name(b)
            if ca == cb and out.basis[ca].degree % 2 == 1:
                continue
            mult.set_product(ca, cb, out.zero)
    return MDGAlgebra(out, mult)


def wedge_sum(a: FreeComplex, b: FreeComplex, name=None) -> FreeComplex:
    """Wedge of two complexes centered at R: direct sum in positive degrees,
    shared unit in degree 0, and d(x) negated on the degree-1 part of the
    second summand (so d(a, b) = da - db there).  Basis names must differ."""
    if a.ring != b.ring:
        raise MDGError("wedge summands live over different rings")
    cx = FreeComplex(a.ring, name or f"{a.name}v{b.name}")
    for src in (a, b):
        for n in src.order:
            if n == UNIT:
                continue
            if n in cx.basis:
                raise MDGError(f"wedge summands share the basis name {n!r}")
            cx.add_basis(n, src.basis[n].degree, src.basis[n].mdeg)
    for src, flip in ((a, False), (b, True)):
        for n in src.order:
            if n == UNIT:
                continue
            img = Element(cx, dict(src.diff.get(n, src.zero).coeffs))
            if flip and src.basis[n].degree == 1:
                img = -img
            cx.set_diff(n, img)
    return cx
