"""Standard constructions: Taylor algebras of monomial ideals, transported
multiplications along comparison maps, mapping-cone extensions, wedge sums.
"""

from __future__ import annotations

from itertools import combinations

from .complexes import UNIT, Element, FreeComplex
from .mdg import (ChainMap, MDGAlgebra, MDGError, MissingProductError,
                  Multiplication)
from .ring import Polynomial, Ring, add_term, mono_div, mono_lcm, mono_mul


def _mono_exponent(p: Polynomial) -> tuple:
    if not p.is_monomial() or p.lead_coeff() != 1:
        raise MDGError(f"expected a monic monomial, got {p}")
    return p.lead_mono()


def subset_name(sigma) -> str:
    return "e" + "".join(str(i + 1) for i in sigma)


def shuffle_sign(sigma, tau) -> int:
    """Sign of sorting the concatenation of two disjoint increasing tuples."""
    inversions = sum(1 for s in sigma for t in tau if s > t)
    return -1 if inversions % 2 else 1


def taylor_algebra(ring: Ring, monomials, name: str = "T") -> MDGAlgebra:
    """The Taylor complex of a list of monomials, with its multiplication
    e_sigma * e_tau = sign * (m_sigma m_tau / m_{sigma u tau}) e_{sigma u tau}
    for disjoint subsets and 0 otherwise."""
    expts = [_mono_exponent(m) if isinstance(m, Polynomial) else tuple(m)
             for m in monomials]
    g = len(expts)
    cx = FreeComplex(ring, name)
    subsets = []
    for size in range(1, g + 1):
        for sigma in combinations(range(g), size):
            subsets.append(sigma)
    mdeg = {}
    for sigma in subsets:
        acc = expts[sigma[0]]
        for i in sigma[1:]:
            acc = mono_lcm(acc, expts[i])
        mdeg[sigma] = acc
        cx.add_basis(subset_name(sigma), len(sigma), acc)
    for sigma in subsets:
        coeffs = {}
        for pos, i in enumerate(sigma):
            rest = tuple(j for j in sigma if j != i)
            ratio = mono_div(mdeg[sigma], mdeg[rest] if rest else ring.zero_mono)
            target = subset_name(rest) if rest else UNIT
            c = ring.monomial(ratio, 1 if pos % 2 == 0 else -1)
            add_term(coeffs, target, c)
        cx.set_diff(subset_name(sigma), cx.element(coeffs))
    mult = Multiplication(cx, f"{name}_mult")
    for i, sigma in enumerate(subsets):
        for tau in subsets[i:]:
            if set(sigma) & set(tau):
                value = cx.zero
            else:
                union = tuple(sorted(sigma + tau))
                ratio = mono_div(mono_mul(mdeg[sigma], mdeg[tau]), mdeg[union])
                value = cx.element({subset_name(union):
                                    ring.monomial(ratio, shuffle_sign(sigma, tau))})
            if sigma == tau:
                if len(sigma) % 2 == 1:
                    continue          # implied by strictness
            mult.set_product(subset_name(sigma), subset_name(tau), value)
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
    names = [n for n in target.order if n != UNIT]
    for i, a in enumerate(names):
        for b in names[i:]:
            if a == b and target.basis[a].degree % 2 == 1:
                continue
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
