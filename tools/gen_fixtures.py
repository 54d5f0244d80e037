"""Generate the .mdg fixture documents shipped in src/mdgkit/fixtures/.

Each multiplication table is produced by independent machinery -- transport
from the Taylor algebra along a splitting solved here, explicit
comparison-map transport, or normal-form completion -- and every hard
expectation is asserted here before the document is written.  The splitting
solver is a loop over degrees around the library's lifting kernel,
`complexes.lift_on_pieces`, with rational unknowns only.  Run from the
repository root:

    python3 tools/gen_fixtures.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from mdgkit.complexes import UNIT, FreeComplex, lift_on_pieces
from mdgkit.constructions import (check_splitting, taylor_algebra,
                                  transport_multiplication)
from mdgkit.gcalg import GCPoly
from mdgkit.groebner import buchberger, gc_to_element, mult_ideal
from mdgkit.mdg import (ChainMap, MDGAlgebra, Multiplication,
                        is_multiplicative, multiplicator)
from mdgkit.parser import Document, format_document, parse_document, \
    parse_element
from mdgkit.ring import RationalFunction, Ring, mono_divides

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "mdgkit",
                           "fixtures")


# ---------------------------------------------------------------------------
# subcomplex of a Taylor complex on a set of faces

def sub_resolution(T: FreeComplex, faces, name: str,
                   cells=()) -> FreeComplex:
    """The subcomplex of a Taylor complex spanned by the given face names
    (which must be closed under the differential), followed by the extra
    cells (name, degree, d text).  A cell on the generators of a face of T
    has that face's multidegree, the lcm of their monomials, so it is read
    from T."""
    faces = set(faces)
    F = FreeComplex(T.ring, name)
    for n in T.order:
        if n in faces:
            F.add_basis(n, T.basis[n].degree, T.basis[n].mdeg)
    for n, degree, _ in cells:
        F.add_basis(n, degree, T.basis[n].mdeg)
    for n in T.order:
        if n in faces:
            F.set_diff(n, F.element(dict(T.d(T.elem(n)).coeffs)))
    for n, _, d in cells:
        F.set_diff(n, parse_element(d, F))
    return F


# ---------------------------------------------------------------------------
# splitting solver: complete pi: T -> F, pi|F = id, to a multigraded chain
# map, one degree at a time, with `lift_on_pieces`: pi(e_s) for a face s of
# T outside F is a lift of pi(d e_s) at the multidegree of s.  Every value is
# a rational vector {name: q} read at a known multidegree, as in
# `Multiplication.q_mul`.  Optional constraints, rows on the faces of the
# degree being solved:
#   pair_pins[(a, b)] = value   forces a*b = value in the transported table;
#   square_triples=True         forces a*(a*b) = 0 for all basis pairs (a, b)
#                               (together with a*a = 0, which transport gives
#                               for free, this is associativity on all
#                               triples with a repeated first argument).
# A row that touches the unknowns of two faces makes the kernel raise.

def solve_splitting(T_alg: MDGAlgebra, F: FreeComplex, pair_pins=None,
                    square_triples=False):
    T, mult = T_alg.complex, T_alg.mult
    consts = mult.structure_constants()
    t_diff = T.diff_constants()
    pins = pair_pins or {}
    f_names = [n for n in F.order if n != UNIT]
    pi = {n: {n: 1} for n in F.order}

    def push(vec):
        """(pi of vec's part on solved faces, vec's part on the others)."""
        known, rest = {}, {}
        for n, q in vec.items():
            if n not in pi:
                rest[n] = q
                continue
            for k, p in pi[n].items():
                known[k] = known.get(k, 0) + q * p
        return known, rest

    missing = [n for n in T.order if n not in pi]
    for D in sorted({T.basis[s].degree for s in missing}):
        faces = [s for s in missing if T.basis[s].degree == D]
        rows = []

        def require(vec, want):
            """Rows for pi(vec) = want, vec on the faces of degree D."""
            known, rest = push(vec)
            for k in F.names_in_degree(D):
                rows.append(({(n, k): q for n, q in rest.items()},
                             want.get(k, 0) - known.get(k, 0)))

        for (a, b), value in pins.items():
            if F.basis[a].degree + F.basis[b].degree == D:
                require(mult.q_row(consts, a, b),
                        {n: c.lead_coeff() for n, c in value.coeffs.items()})
        if square_triples:
            for a in f_names:
                for b in f_names:
                    if 2 * F.basis[a].degree + F.basis[b].degree == D:
                        inner = push(mult.q_row(consts, a, b))[0]
                        require(mult.q_mul(consts, {a: 1}, inner), {})
        pi.update(lift_on_pieces(
            F, [(s, D, T.basis[s].mdeg) for s in faces],
            {s: push(t_diff[s])[0] for s in faces}, rows))
        print(f"  degree {D}: {len(faces)} faces")

    pi_map = ChainMap(T, F, "pi")
    for s in T.order:
        if s != UNIT:
            pi_map.set_image(s, F.from_constants(pi[s], T.basis[s].mdeg))
    for (a, b), value in pins.items():
        got = pi_map.apply(mult.product(a, b))
        assert (got - value).is_zero(), \
            f"pin {a}*{b}: transported {got}, wanted {value}"
    iota = ChainMap(F, T, "iota")
    for n in f_names:
        iota.set_image(n, T.elem(n))
    return iota, pi_map


# ---------------------------------------------------------------------------
# document assembly

def make_document(ring, complexes, mults=(), maps=()):
    """A document of the named (name, table) and (name, map) pairs; each
    table and map names its own complexes."""
    doc = Document()
    doc.ring = ring
    for cx in complexes:
        doc.complexes[cx.name] = cx
    doc.mults.update(mults)
    doc.maps.update(maps)
    return doc


def emit(filename, doc):
    text = format_document(doc)
    # round-trip sanity: the canonical form must parse back to itself
    assert format_document(parse_document(text)) == text
    path = os.path.join(FIXTURE_DIR, filename)
    with open(path, "w") as f:
        f.write(text)
    print(f"wrote {path} ({len(text.splitlines())} lines)")


def assert_assoc_square_triples(alg):
    names = alg.basis_names()
    for a in names:
        for b in names:
            v = alg.associator_names(a, a, b)
            assert v.is_zero(), f"[{a},{a},{b}] = {v}"


# ---------------------------------------------------------------------------
# fixture 1: the resolution of (x^2, w^2, zw, xy, y^2z^2)

def gen_fk():
    R = Ring(["x", "y", "z", "w"])
    mons = [R.var("x") ** 2, R.var("w") ** 2, R.var("z") * R.var("w"),
            R.var("x") * R.var("y"), (R.var("y") * R.var("z")) ** 2]
    T_alg = taylor_algebra(R, mons, name="T5")
    faces = (["e1", "e2", "e3", "e4", "e5"]
             + ["e12", "e13", "e14", "e23", "e24", "e34", "e35", "e45"]
             + ["e123", "e124", "e134", "e234", "e345"]
             + ["e1234"])
    F = sub_resolution(T_alg.complex, faces, "FK")
    assert F.check() == []

    pin = {("e5", "e12"): parse_element(
        "y*z^2*e124 + x*y*z*e234 - x*w*e345", F)}
    print("solving splitting for FK")
    iota, pi = solve_splitting(T_alg, F, pair_pins=pin, square_triples=True)
    assert check_splitting(iota, pi) == []
    mult = transport_multiplication(F, T_alg, iota, pi, name="mu")
    alg = MDGAlgebra(F, mult)
    assert alg.check().ok()

    # uniquely forced products
    forced = {
        ("e1", "e5"): "y*z^2*e14 + x*e45",
        ("e1", "e2"): "e12",
        ("e2", "e5"): "y^2*z*e23 + w*e35",
        ("e2", "e45"): "-y*z*e234 + w*e345",
        ("e1", "e35"): "y*z*e134 - x*e345",
        ("e1", "e23"): "e123",
        ("e2", "e14"): "-e124",
        ("e5", "e12"): "y*z^2*e124 + x*y*z*e234 - x*w*e345",
    }
    for (a, b), s in forced.items():
        got = alg.mul(F.elem(a), F.elem(b))
        want = parse_element(s, F)
        assert (got - want).is_zero(), f"{a}*{b} = {got}, wanted {want}"

    # the obstruction to associativity
    want = F.d(F.elem("e1234")).scale(-(R.var("y") * R.var("z")))
    got = alg.associator_names("e1", "e5", "e2")
    assert (got - want).is_zero(), f"[e1,e5,e2] = {got}"
    assert_assoc_square_triples(alg)

    # the projection is not multiplicative: its multiplicator at (e1, e25)
    # is minus the associator above
    T = T_alg.complex
    mw = multiplicator(pi, T_alg, alg, T.elem("e1"), T.elem("e25"))
    assert (mw.polynomialize() + want).is_zero(), f"[e1,e25]_pi = {mw}"
    emit("fk.mdg", make_document(R, [F], mults=[("mu", alg.mult)]))
    emit("fk_split.mdg", make_document(
        R, [T_alg.complex, F],
        mults=[("nu", T_alg.mult), ("mu", alg.mult)],
        maps=[("iota", iota), ("pi", pi)]))
    return R, F, alg


# ---------------------------------------------------------------------------
# fixture 2: the resolution of (x^2, w^2, zw, xy, y^2z, yz^2): two tetrahedra
# glued along an edge.  The multiplication extends the one on FK along the
# embedding e_sigma -> z^(s) eps_sigma.

FM_FACES = (["e1", "e2", "e3", "e4", "e5", "e6"]
            + ["e12", "e13", "e14", "e23", "e24", "e34",
               "e35", "e36", "e45", "e46", "e56"]
            + ["e123", "e124", "e134", "e234",
               "e345", "e346", "e356", "e456"]
            + ["e1234", "e3456"])


def gen_fm(fk, alg_k):
    R = fk.ring
    v = {n: R.var(n) for n in "xyzw"}
    mons = [v["x"] ** 2, v["w"] ** 2, v["z"] * v["w"], v["x"] * v["y"],
            v["y"] ** 2 * v["z"], v["y"] * v["z"] ** 2]
    T_alg = taylor_algebra(R, mons, name="T6")
    FM = sub_resolution(T_alg.complex, FM_FACES, "FM")
    assert FM.check() == []

    # the embedding of FK scales these basis elements by z
    zexp = {"e5": 1, "e35": 1, "e45": 1, "e345": 1}
    embed = ChainMap(fk, FM, "j")
    for n in fk.order:
        if n != UNIT:
            embed.set_image(n, FM.elem(n).scale(v["z"] ** zexp.get(n, 0))
                            if zexp.get(n) else FM.elem(n))
    assert embed.check_chain_map() == []

    # extension pins: z^(sa+sb) * (a*b in FM) = embed(a*b in FK)
    pins = {}
    fk_names = [n for n in fk.order if n != UNIT]
    for i, a in enumerate(fk_names):
        for b in fk_names[i:]:
            if a == b and fk.basis[a].degree % 2 == 1:
                continue
            img = embed.apply(alg_k.mult.product(a, b))
            s = zexp.get(a, 0) + zexp.get(b, 0)
            if s:
                img = img.scale(RationalFunction(R.one, v["z"] ** s))
            assert img.is_polynomial(), f"extension fails at {a}*{b}"
            pins[(a, b)] = img.polynomialize()

    print("solving splitting for FM")
    iota, pi = solve_splitting(T_alg, FM, pair_pins=pins,
                               square_triples=True)
    assert check_splitting(iota, pi) == []
    mult = transport_multiplication(FM, T_alg, iota, pi, name="mu")
    alg = MDGAlgebra(FM, mult)
    assert alg.check().ok()

    forced = {
        ("e1", "e5"): "y*z*e14 + x*e45",
        ("e1", "e6"): "z^2*e14 + x*e46",
        ("e2", "e5"): "y^2*e23 + w*e35",
        ("e2", "e6"): "y*z*e23 + w*e36",
        ("e2", "e45"): "-y*e234 + w*e345",
        ("e2", "e46"): "-z*e234 + w*e346",
        ("e1", "e35"): "y*e134 - x*e345",
        ("e1", "e36"): "z*e134 - x*e346",
    }
    for (a, b), s in forced.items():
        got = alg.mul(FM.elem(a), FM.elem(b))
        want = parse_element(s, FM)
        assert (got - want).is_zero(), f"{a}*{b} = {got}, wanted {want}"

    d1234 = FM.d(FM.elem("e1234"))
    for mid, coeff in (("e5", v["y"]), ("e6", v["z"])):
        got = alg.associator_names("e1", mid, "e2")
        want = d1234.scale(-coeff)
        assert (got - want).is_zero(), f"[e1,{mid},e2] = {got}"

    assert is_multiplicative(embed, alg_k, alg) is None
    assert_assoc_square_triples(alg)
    emit("fm.mdg", make_document(fk.ring, [FM],
                                 mults=[("mu", alg.mult)]))


# ---------------------------------------------------------------------------
# fixture 3: the resolution of (x^2, w^2, zw, xy, yz) -- a cellular, not
# simplicial, complex.  Its multiplication is transported from FK through an
# explicit splitting over the localization at yz.

def gen_fa(fk, alg_k):
    R = fk.ring
    v = {n: R.var(n) for n in "xyzw"}
    mons = [v["x"] ** 2, v["w"] ** 2, v["z"] * v["w"], v["x"] * v["y"],
            v["y"] * v["z"]]
    T5a = taylor_algebra(R, mons, name="T5a")
    simplicial = (["e1", "e2", "e3", "e4", "e5"]
                  + ["e12", "e13", "e14", "e23", "e24", "e35", "e45"]
                  + ["e123", "e124"])
    FA = sub_resolution(T5a.complex, simplicial, "FA", [
        ("e1345", 3, "x^2*e35 - x*w*e45 - z*w*e14 + y*e13"),
        ("e2345", 3, "x*w*e35 - w^2*e45 - z*e24 + x*y*e23"),
        # sign note: this orientation is the one forced by d^2 = 0 together
        # with the splitting below (d(e12345) must be the image of d(e1234))
        ("e12345", 4, "x*e2345 + z*e124 - w*e1345 - y*e123")])
    assert FA.check() == []

    yz = v["y"] * v["z"]
    pi = ChainMap(fk, FA, "pi")
    pi_images = {
        "e5": FA.elem("e5").scale(yz),
        "e35": FA.elem("e35").scale(yz),
        "e45": FA.elem("e45").scale(yz),
        "e34": FA.elem("e35").scale(v["x"]) - FA.elem("e45").scale(v["w"]),
        "e345": FA.zero,
        "e234": FA.elem("e2345"),
        "e134": FA.elem("e1345"),
        "e1234": FA.elem("e12345"),
    }
    for n in fk.order:
        if n != UNIT:
            pi.set_image(n, pi_images.get(n, FA.element({n: R.one})
                                          if n in FA.basis else None))
    assert pi.check_chain_map() == []

    inv_yz = RationalFunction(R.one, yz)
    iota = ChainMap(FA, fk, "iota")
    iota_images = {
        "e5": fk.elem("e5").scale(inv_yz),
        "e35": fk.elem("e35").scale(inv_yz),
        "e45": fk.elem("e45").scale(inv_yz),
        # the e345 corrections are forced by commuting with d; they also make
        # pi o iota the identity
        "e2345": fk.elem("e234")
        - fk.elem("e345").scale(inv_yz * v["w"]),
        "e1345": fk.elem("e134")
        - fk.elem("e345").scale(inv_yz * v["x"]),
        "e12345": fk.elem("e1234"),
    }
    for n in FA.order:
        if n != UNIT:
            iota.set_image(n, iota_images[n] if n in iota_images
                           else fk.elem(n))
    assert check_splitting(iota, pi) == []

    mult = transport_multiplication(FA, alg_k, iota, pi, name="mu")
    alg = MDGAlgebra(FA, mult)
    assert alg.check().ok()
    got = alg.associator_names("e1", "e5", "e2")
    want = FA.d(FA.elem("e12345")).scale(-R.one)
    assert (got - want).is_zero(), f"[e1,e5,e2] = {got}"
    emit("fa.mdg", make_document(fk.ring, [FA],
                                 mults=[("mu", alg.mult)]))


# ---------------------------------------------------------------------------
# fixture 4: the resolution of (x^2, w^2, zw, xy, y^2, z^2).  The table is
# given by a minimal presentation; the full table is its normal-form closure.

FO_FACES = (["e1", "e2", "e3", "e4", "e5", "e6"]
            + ["e12", "e13", "e14", "e16", "e23", "e24", "e25", "e34",
               "e35", "e36", "e45", "e46", "e56"]
            + ["e123", "e124", "e134", "e136", "e146", "e234", "e235",
               "e245", "e345", "e346", "e356", "e456"]
            + ["e1234", "e1346", "e2345", "e3456"])

FO_PRESENTATION = {
    ("e1", "e2"): "e12",
    ("e1", "e3"): "e13",
    ("e1", "e4"): "x*e14",
    ("e1", "e5"): "y*e14 + x*e45",
    ("e1", "e6"): "e16",
    ("e2", "e3"): "w*e23",
    ("e2", "e4"): "e24",
    ("e2", "e5"): "e25",
    ("e2", "e6"): "z*e23 + w*e36",
    ("e3", "e4"): "e34",
    ("e3", "e5"): "e35",
    ("e3", "e6"): "z*e36",
    ("e4", "e5"): "y*e45",
    ("e4", "e6"): "e46",
    ("e5", "e6"): "e56",
    ("e1", "e25"): "y*e124 - x*e245",
    ("e1", "e35"): "y*e134 - x*e345",
    ("e1", "e56"): "y*e146 + x*e456",
    ("e2", "e16"): "-z*e123 - w*e136",
    # coefficients forced by the multigrading and the Leibniz rule
    ("e2", "e46"): "-z*e234 + w*e346",
    ("e2", "e56"): "-z*e235 + w*e356",
    ("e3", "e45"): "e345",
    ("e5", "e24"): "y*e245",
    ("e6", "e13"): "z*e136",
    ("e6", "e34"): "z*e346",
    ("e6", "e35"): "z*e356",
    ("e6", "e45"): "e456",
    ("e1", "e235"): "y*e1234 + x*e2345",
    ("e1", "e346"): "x*e1346",
    ("e1", "e356"): "y*e1346 - x*e3456",
    ("e2", "e456"): "z*e2345 + w*e3456",
}


def partial_multiplication(cx, pairs, name="mu"):
    mult = Multiplication(cx, name)
    for (a, b), s in pairs.items():
        mult.set_product(a, b, parse_element(s, cx))
    return mult


def complete_table_by_nf(cx, mult):
    """Extend a partial table to a total one: the product of a pair is the
    Groebner normal form of its word; pairs whose normal form keeps a
    quadratic monomial must have no multigraded landing spot, and become 0."""
    alg = MDGAlgebra(cx, mult)
    ctx, gens = mult_ideal(alg)
    gb = buchberger(ctx, gens)
    assert not gb.linear_elements(), "presentation is not associative"
    full = Multiplication(cx, mult.name)
    names = [n for n in cx.order if n != UNIT]
    forced_zero = []
    for i, a in enumerate(names):
        for b in names[i:]:
            if a == b and cx.basis[a].degree % 2 == 1:
                continue
            sign, mono = ctx.word_mono([ctx.index(a), ctx.index(b)])
            nf, _ = gb.reduce(GCPoly(
                ctx, {mono: RationalFunction(cx.ring.const(sign))}))
            if all(ctx.mono_total(m) <= 1 for m in nf.terms):
                full.set_product(a, b, gc_to_element(cx, nf).polynomialize())
                continue
            degree = cx.basis[a].degree + cx.basis[b].degree
            mdeg = tuple(p + q for p, q in zip(cx.basis[a].mdeg,
                                              cx.basis[b].mdeg))
            spots = [t for t in names if cx.basis[t].degree == degree
                     and mono_divides(cx.basis[t].mdeg, mdeg)]
            assert not spots, f"{a}*{b} is underdetermined (spots {spots})"
            forced_zero.append((a, b))
            full.set_product(a, b, cx.zero)
    if forced_zero:
        print(f"  {len(forced_zero)} products forced to 0 by the "
              f"multigrading")
    return full


def gen_fo(R):
    v = {n: R.var(n) for n in "xyzw"}
    mons = [v["x"] ** 2, v["w"] ** 2, v["z"] * v["w"], v["x"] * v["y"],
            v["y"] ** 2, v["z"] ** 2]
    T_alg = taylor_algebra(R, mons, name="T6o")
    FO = sub_resolution(T_alg.complex, FO_FACES, "FO")
    assert FO.check() == []
    partial = partial_multiplication(FO, FO_PRESENTATION)
    print("completing FO table by normal forms")
    full = complete_table_by_nf(FO, partial)
    alg = MDGAlgebra(FO, full)
    assert alg.check().ok()
    # the two products that rule out extending the FM table
    assert (alg.mul(FO.elem("e2"), FO.elem("e5"))
            - FO.elem("e25")).is_zero()
    assert (alg.mul(FO.elem("e1"), FO.elem("e6"))
            - FO.elem("e16")).is_zero()
    # fully associative on basis triples
    names = alg.basis_names()
    maxdeg = FO.max_degree()
    for a in names:
        for b in names:
            for c in names:
                if (FO.basis[a].degree + FO.basis[b].degree
                        + FO.basis[c].degree) > maxdeg:
                    continue
                assert alg.associator_names(a, b, c).is_zero(), (a, b, c)
    emit("fo_presentation.mdg",
         make_document(R, [FO], mults=[("mu", partial)]))
    emit("fo_full.mdg", make_document(R, [FO], mults=[("mu", alg.mult)]))


# ---------------------------------------------------------------------------
# fixture 5: the Taylor complex of (x^2yzw, xy^2zw, xyz^2w, xyzw^2) with a
# deliberately non-associative partial table.

EX6_TABLE = {
    ("e1", "e2"): "x*y*z*w*e12",
    ("e1", "e3"): "x*y*z^2*e14 - x^2*y*z*e34",
    ("e2", "e3"): "x*y*z*w*e23",
    # sign note: the second coefficient is forced by the Leibniz rule
    # against e3*e1 and e3*e2
    ("e3", "e12"): "x*y*z*w*e123 + x*y^2*z*e134",
    ("e2", "e14"): "-x*y*z*w*e124",
    ("e2", "e34"): "x*y*z*w*e234",
}


def gen_ex6(R):
    v = {n: R.var(n) for n in "xyzw"}
    m = v["x"] * v["y"] * v["z"] * v["w"]
    T_alg = taylor_algebra(R, [m * v["x"], m * v["y"], m * v["z"],
                               m * v["w"]], name="EX6")
    cx = T_alg.complex
    mult = partial_multiplication(cx, EX6_TABLE)
    alg = MDGAlgebra(cx, mult)
    assert alg.check().ok()
    got = alg.associator_names("e2", "e1", "e3")
    want = cx.d(cx.elem("e1234")).scale(
        v["x"] ** 2 * v["y"] ** 2 * v["z"] ** 2 * v["w"])
    assert (got - want).is_zero(), f"[e2,e1,e3] = {got}"
    emit("ex6.mdg", make_document(R, [cx], mults=[("mu", alg.mult)]))


# ---------------------------------------------------------------------------
# fixture 6: the resolution of (zv, yv, uv, xv, xu, yzu) over Q[x,y,z,u,v]
# with the 21-product table whose associativity is certified by completion.
# The differentials on the non-simplicial cells are forced by d^2 = 0, the
# multigrading, and the Leibniz rule against the given products.

EX55_TABLE = {
    ("e1", "e2"): "v*e12",
    ("e1", "e3"): "v*e13",
    ("e1", "e4"): "v*e14",
    ("e1", "e5"): "u*e14 + z*e45",
    ("e1", "e6"): "z*u*e12 + z*e26",
    ("e2", "e3"): "v*e23",
    ("e2", "e4"): "v*e24",
    ("e2", "e5"): "u*e24 + y*e45",
    ("e2", "e6"): "y*e26",
    ("e3", "e4"): "v*e35 - v*e45",
    ("e3", "e5"): "u*e35",
    ("e3", "e6"): "-z*u*e23 + u*e26",
    ("e4", "e5"): "x*e45",
    ("e4", "e6"): "-z*u*e24 + x*e26",
    ("e5", "e6"): "u*e56",
    ("e1", "e23"): "v*e123",
    ("e1", "e24"): "v*e124",
    ("e1", "e35"): "-v*e1345",
    ("e1", "e56"): "-u*z*e124 + z*e2456",
    ("e1", "e2345"): "v*e12345",
    # the completion found by normal-form exploration
    ("e6", "e35"): "-z*u*e2345 + u*e2456",
}


def gen_ex55():
    R = Ring(["x", "y", "z", "u", "v"])
    v = {n: R.var(n) for n in "xyzuv"}
    mons = [v["z"] * v["v"], v["y"] * v["v"], v["u"] * v["v"],
            v["x"] * v["v"], v["x"] * v["u"],
            v["y"] * v["z"] * v["u"]]
    T_alg = taylor_algebra(R, mons, name="T55")
    simplicial = (["e1", "e2", "e3", "e4", "e5", "e6"]
                  + ["e12", "e13", "e14", "e23", "e24", "e26",
                     "e35", "e45", "e56"]
                  + ["e123", "e124"])
    cx = sub_resolution(T_alg.complex, simplicial, "EX55", [
        ("e1345", 3, "u*e14 - x*e13 - z*e35 + z*e45"),
        ("e2345", 3, "-x*e23 + u*e24 - y*e35 + y*e45"),
        ("e2456", 3, "z*u*e24 - x*e26 + y*z*e45 + v*e56"),
        ("e12345", 4, "x*e123 - u*e124 - y*e1345 + z*e2345")])
    assert cx.check() == []
    mult = partial_multiplication(cx, EX55_TABLE)
    alg = MDGAlgebra(cx, mult)
    assert alg.check().ok()
    emit("ex55.mdg", make_document(R, [cx], mults=[("mu", alg.mult)]))


# ---------------------------------------------------------------------------
# fixture 7: the Taylor algebra of (x^2, xy) over Q[x, y]

def gen_taylor2():
    R2 = Ring(["x", "y"])
    alg = taylor_algebra(R2, [R2.var("x") ** 2, R2.var("x") * R2.var("y")],
                         name="T2")
    assert alg.check().ok()
    emit("taylor_x2_xy.mdg", make_document(
        R2, [alg.complex], mults=[("mu", alg.mult)]))


def main():
    os.makedirs(FIXTURE_DIR, exist_ok=True)
    R, FK, alg_k = gen_fk()
    gen_fm(FK, alg_k)
    gen_fa(FK, alg_k)
    gen_fo(R)
    gen_ex6(R)
    gen_ex55()
    gen_taylor2()


if __name__ == "__main__":
    main()
