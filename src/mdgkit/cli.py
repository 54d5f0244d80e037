"""Command-line driver for the toolkit.

Exit codes: 0 for success (or a mathematically positive answer such as
"associative"), 1 for a mathematically negative answer (a nonzero
obstruction, a failed axiom), 2 for input errors (unreadable files, syntax
errors, unknown names).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .complexes import UNIT, ComplexError, Element, FreeComplex
from .constructions import mapping_cone_extension, taylor_algebra
from .groebner import (associativity_certificate, complete_relations,
                       context_for, mult_ideal)
from .mdg import (MDGAlgebra, MDGError, perturb_multiplication,
                  quotient_homology_dims, random_homotopy)
from .parser import (Document, DocumentError, format_document, is_name,
                     parse_element, parse_gcpoly, tokenize)
from .ring import Polynomial, Ring, laurent_term, mono_divides, mono_mul
from .symdg import SymError, build_sym

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2

GRAMMAR = """\
document grammar:
  ring x, y, ...;
  complex F {
    basis <degree>: <name> mdeg(<ints>), ...;
    d <name> = <element expression>;
  }
  mult mu on F { <name>*<name> = <element expression>; ... }
  map phi: F -> G { <name> = <element expression>; ... }
  homotopy h on F { <name>|<name> = <element expression>; ... }
"""


class CLIError(Exception):
    pass


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def _load(args) -> Document:
    from .parser import parse_document
    try:
        with open(args.document, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise CLIError(f"cannot read {args.document}: {e}")
    return parse_document(text)


def _complex(doc: Document, args) -> FreeComplex:
    """The complex of the table named by --mult; without it, that of the
    document's first table, or its sole complex when it has no table."""
    if args.mult is None and not doc.mults:
        return doc.sole_complex()
    return doc.algebra(next(iter(doc.mults)) if args.mult is None
                       else args.mult).complex


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True, default=str))
    else:
        print(text)


def _dims_str(dims: dict) -> str:
    return ", ".join(f"H_{i}={d}" for i, d in sorted(dims.items()))


def _parse_scalar(ring: Ring, text: str) -> Polynomial:
    """A nonzero polynomial in the ring variables, via the element grammar
    on a complex whose only basis element is the unit."""
    v = parse_element(text, FreeComplex(ring, "_scratch"))
    coeff = v.coeffs.get(UNIT)
    if coeff is None:
        raise CLIError(f"{text!r} is zero")
    return _polynomial(coeff, repr(text))


def _polynomial(coeff, what: str) -> Polynomial:
    """A coefficient as a Polynomial; CLIError when it has a denominator."""
    if not coeff.is_polynomial():
        raise CLIError(f"{what} is not a polynomial")
    return coeff.as_polynomial()


def _is_name(text: str) -> bool:
    """Whether the document tokenizer reads text as exactly one name."""
    try:
        return tokenize(text) == [text, ""] and is_name(text)
    except DocumentError:
        return False


def _parse_modulus(doc: Document, text: str):
    """Comma-separated monomials generating a monomial ideal."""
    monos = []
    for part in text.split(","):
        p = _parse_scalar(doc.ring, part.strip())
        if not p.is_monomial():
            raise CLIError(f"modulus generator {part.strip()!r} is not a "
                           "monomial")
        (m, _), = p.terms.items()
        monos.append(m)
    return monos


def _mod_ideal(p, ring, monos):
    """Drop the monomials of p lying in the monomial ideal."""
    p = _polynomial(p, f"coefficient {p}")
    kept = {m: c for m, c in p.terms.items()
            if not any(mono_divides(g, m) for g in monos)}
    return Polynomial(ring, kept)


def _reduce_element_mod(v, monos):
    cx = v.complex
    return Element(cx, {name: _mod_ideal(coeff, cx.ring, monos)
                        for name, coeff in v.coeffs.items()})


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_check(args) -> int:
    doc = _load(args)
    if not doc.complexes:
        raise DocumentError("document has 0 complexes")
    # --mult checks the named table and its complex; otherwise all of them
    tables = list(doc.mults) if args.mult is None else [args.mult]
    wanted = {doc.algebra(name).complex for name in tables}
    problems, checked = [], {}
    for name, cx in doc.complexes.items():
        if args.mult is None or cx in wanted:
            checked[cx] = cx.check()
            problems += [f"{name}: {p}" for p in checked[cx]]
    for name in tables:
        # the table's complex is one of those just checked
        alg = doc.algebra(name)
        rep = alg.table_check(checked[alg.complex])
        problems += [f"{name}: {p}" for p in rep.table_problems()]
    ok = not problems
    _emit(args, {"command": "check", "status": "ok" if ok else "fail",
                 "problems": problems},
          "all checks passed" if ok else "\n".join(problems))
    return EXIT_OK if ok else EXIT_NEGATIVE


def cmd_assoc(args) -> int:
    doc = _load(args)
    alg = doc.algebra(args.mult)
    if args.triple:
        names = [s.strip() for s in args.triple.split(",")]
        if len(names) != 3:
            raise CLIError("--triple expects three comma-separated names")
        v = alg.associator_names(*names)
        payload = {"command": "assoc", "triple": names,
                   "associator": str(v)}
        text = str(v)
        nonzero = not v.is_zero()
        if args.modulus:
            monos = _parse_modulus(doc, args.modulus)
            reduced = _reduce_element_mod(v, monos)
            payload["modulo"] = str(reduced)
            text += f"\nmodulo ({args.modulus}): {reduced}"
            nonzero = not reduced.is_zero()
        _emit(args, payload, text)
        return EXIT_NEGATIVE if nonzero else EXIT_OK
    hit = alg.associative_on_basis()
    if hit is None:
        _emit(args, {"command": "assoc", "status": "associative"},
              "associative on all basis triples")
        return EXIT_OK
    a, b, c, v = hit
    _emit(args, {"command": "assoc", "status": "not associative",
                 "witness": [a, b, c], "associator": str(v)},
          f"not associative: [{a},{b},{c}] = {v}")
    return EXIT_NEGATIVE


def cmd_alt(args) -> int:
    doc = _load(args)
    alg = doc.algebra(args.mult)
    hit = alg.alternative_on_basis()
    if hit is None:
        _emit(args, {"command": "alt", "status": "alternative"},
              "alternative on all basis pairs")
        return EXIT_OK
    a, x, _, v = hit
    _emit(args, {"command": "alt", "status": "not alternative",
                 "witness": [a, x], "associator": str(v)},
          f"not alternative: [{a},{x},{a}] = {v}")
    return EXIT_NEGATIVE


def cmd_submodule(args) -> int:
    doc = _load(args)
    alg = doc.algebra(args.mult)
    sub = alg.associator_submodule()
    dims = sub.homology_dims()
    payload = {"command": "submodule", "generators": len(sub.gens),
               "inf_degree": sub.inf_degree(), "sup_degree": sub.sup_degree(),
               "homology": {str(i): d for i, d in dims.items()}}
    text = (f"generators: {len(sub.gens)}\n"
            f"degrees: {sub.inf_degree()}..{sub.sup_degree()}\n"
            f"homology: {_dims_str(dims)}")
    if sub.is_zero():
        text = "the associator submodule is zero"
    _emit(args, payload, text)
    return EXIT_OK


def cmd_homology(args) -> int:
    doc = _load(args)
    dims = _complex(doc, args).homology_dims()
    _emit(args, {"command": "homology",
                 "dims": {str(i): d for i, d in dims.items()}},
          _dims_str(dims))
    return EXIT_OK


def cmd_quotient(args) -> int:
    doc = _load(args)
    alg = doc.algebra(args.mult)
    sub = alg.associator_submodule()
    dims = quotient_homology_dims(alg, sub)
    _emit(args, {"command": "quotient",
                 "dims": {str(i): d for i, d in dims.items()}},
          _dims_str(dims))
    return EXIT_OK


def cmd_gb(args) -> int:
    doc = _load(args)
    alg = doc.algebra(args.mult)
    if args.emit_script:
        print(_export_script(alg))
        return EXIT_OK
    report = associativity_certificate(alg)
    payload = {"command": "gb", "basis_size": len(report.basis),
               "associative": report.associative, "route": report.route,
               "stats": report.basis.stats,
               "witnesses": [str(w) for w in report.witnesses],
               "undefined": [f"{a}*{b}" for a, b in report.undefined_pairs]}
    text = f"basis size: {len(report.basis)}\n{report.summary()}"
    _emit(args, payload, text)
    return EXIT_OK if report.associative else EXIT_NEGATIVE


def cmd_reduce(args) -> int:
    if not args.expr:
        raise CLIError("reduce needs --expr")
    doc = _load(args)
    alg = doc.algebra(args.mult)
    consts = alg.mult.structure_constants()
    ctx = context_for(alg.complex)
    f = parse_gcpoly(args.expr, ctx)
    _require_multihomogeneous(alg.complex, f, args.expr)
    basis, _, _ = complete_relations(alg, ctx, consts)
    nf, _ = basis.reduce(f)
    _emit(args, {"command": "reduce", "expr": args.expr,
                 "normal_form": str(nf), "stats": basis.stats}, str(nf))
    return EXIT_OK


def _require_multihomogeneous(cx: FreeComplex, f, text: str) -> None:
    """CLIError naming the first term of f, in descending order, whose
    multidegree differs from that of f's lead term.  A term x^a*e^m has
    multidegree a + sum_i m_i*mdeg(e_i); a coefficient with several terms
    mixes multidegrees."""
    ctx = f.ctx
    mdegs = [cx.basis[name].mdeg for name in ctx.names]
    lead = None
    for mono, coeff in f.sorted_terms():
        base = tuple(sum(e * md[k] for e, md in zip(mono, mdegs))
                     for k in range(cx.ring.nvars))
        word = ctx.format_mono(mono)
        for expts in sorted(coeff.exponents(), reverse=True):
            x = str(laurent_term(cx.ring, 1, expts))
            term = word if x == "1" else x if word == "1" else f"{x}*{word}"
            md = mono_mul(expts, base)
            if lead is None:
                lead = term, md
            elif md != lead[1]:
                raise CLIError(
                    f"--expr {text!r} is not multihomogeneous: {term} has "
                    f"multidegree {md}, {lead[0]} has {lead[1]}")


def cmd_taylor(args) -> int:
    if not args.ring or not args.ideal:
        raise CLIError("taylor needs --ring and --ideal")
    names = [v.strip() for v in args.ring.split(",")]
    for i, v in enumerate(names):
        if not _is_name(v):
            raise CLIError(f"{v!r} in --ring is not a variable name")
        if v in names[:i]:
            raise CLIError(f"duplicate variable {v!r} in --ring")
    ring = Ring(names)
    doc = Document()
    doc.ring = ring
    monos = [_parse_scalar(ring, part.strip())
             for part in args.ideal.split(",")]
    alg = taylor_algebra(ring, monos, name="T")
    clash = [v for v in names if v in alg.complex.basis]
    if clash:
        raise CLIError(f"variable {clash[0]!r} in --ring is also the name of "
                       "a basis element")
    doc.complexes["T"] = alg.complex
    doc.mults["mu"] = alg.mult
    print(format_document(doc), end="")
    return EXIT_OK


def cmd_cone(args) -> int:
    if not args.expr:
        raise CLIError("cone needs --expr with the adjoined differential")
    if not _is_name(args.prefix):
        raise CLIError(f"--prefix {args.prefix!r} is not a name")
    doc = _load(args)
    alg = doc.algebra(args.mult)
    r = _parse_scalar(doc.ring, args.expr)
    cone = mapping_cone_extension(alg, r, prefix=args.prefix)
    if any(v in cone.complex.basis for v in doc.ring.variables):
        raise CLIError(f"--prefix {args.prefix!r} names a basis element "
                       "like a ring variable")
    out = Document()
    out.ring = doc.ring
    name = "".join(ch if ch.isalnum() or ch == "_" else "_"
                   for ch in cone.complex.name)
    cone.complex.name = name
    out.complexes[name] = cone.complex
    out.mults["mu"] = cone.mult
    print(format_document(out), end="")
    return EXIT_OK


def cmd_sym(args) -> int:
    doc = _load(args)
    S = build_sym(_complex(doc, args), args.truncate)
    problems = S.check()
    dims = S.dims()
    lines = [f"S_{i}^{m}: dim {d}" for (i, m), d in sorted(dims.items())]
    if problems:
        lines += [f"FAIL {p}" for p in problems]
    _emit(args, {"command": "sym", "truncation": S.N,
                 "dims": {f"{i},{m}": d for (i, m), d in sorted(dims.items())},
                 "problems": problems}, "\n".join(lines))
    return EXIT_OK if not problems else EXIT_NEGATIVE


def cmd_transport(args) -> int:
    from .constructions import check_splitting, transport_multiplication
    doc = _load(args)
    pair = _find_splitting(doc)
    if pair is None:
        raise CLIError("document needs maps iota: X -> Y and pi: Y -> X "
                       "with pi iota = id")
    iota, pi = pair
    problems = check_splitting(iota, pi)
    if problems:
        _emit(args, {"command": "transport", "status": "fail",
                     "problems": problems}, "\n".join(problems))
        return EXIT_NEGATIVE
    big = next((m for m in doc.mults.values() if m.complex is iota.target),
               None)
    if big is None:
        raise CLIError("no multiplication table on the big complex")
    mult = transport_multiplication(iota.source,
                                    MDGAlgebra(iota.target, big), iota, pi)
    existing = next((m for m in doc.mults.values()
                     if m.complex is iota.source), None)
    lines = []
    status = "transported"
    if existing is not None:
        diffs = [f"{a}*{b}" for (a, b) in mult.stored_pairs()
                 if not (mult.product(a, b)
                         - existing.product(a, b)).is_zero()]
        status = "matches" if not diffs else "differs"
        lines.append(f"transported table {status} the stored table"
                     + (f" at {', '.join(diffs)}" if diffs else ""))
    else:
        cx = iota.source
        for a, b in mult.stored_pairs():
            lines.append(f"{a}*{b} = {cx.format_element(mult.product(a, b))}")
    _emit(args, {"command": "transport", "status": status,
                 "products": len(mult.table)}, "\n".join(lines))
    return EXIT_OK if status in ("transported", "matches") else EXIT_NEGATIVE


def _find_splitting(doc: Document):
    """The first pair of maps phi: X -> Y and psi: Y -> X, X not Y, as
    (iota, pi): iota maps out of the complex with fewer basis elements,
    whichever block the document gives first."""
    for phi in doc.maps.values():
        for psi in doc.maps.values():
            if phi.target is psi.source and psi.target is phi.source \
                    and phi.source is not phi.target:
                if len(phi.source.basis) > len(psi.source.basis):
                    return psi, phi
                return phi, psi
    return None


def cmd_perturb(args) -> int:
    doc = _load(args)
    alg = doc.algebra(args.mult)
    h = random_homotopy(alg, args.seed)
    mult = perturb_multiplication(alg, h)
    algh = MDGAlgebra(alg.complex, mult)
    rep = algh.check()
    core_ok = not (rep.complex_problems or rep.degree_problems
                   or rep.leibniz_problems)
    payload = {"command": "perturb", "seed": args.seed,
               "entries": len(h.table),
               "chain_map_and_leibniz": core_ok,
               "multigrading_respected": not rep.mdeg_problems}
    if not h.table:
        print(f"warning: seed {args.seed} drew no homotopy entry; the table "
              "is unchanged", file=sys.stderr)
    text = (f"seed {args.seed}: chain-map/degree/Leibniz "
            f"{'ok' if core_ok else 'FAIL'}; multigrading "
            f"{'respected' if not rep.mdeg_problems else 'not respected'}")
    _emit(args, payload, text)
    return EXIT_OK if core_ok else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# the emit-only exporter
# ---------------------------------------------------------------------------

def _export_script(alg: MDGAlgebra) -> str:
    """A Singular session computing the same completed basis; emitted for
    cross-checking only, never parsed back."""
    ctx, gens = mult_ideal(alg)
    weights = ",".join(str(d) for d in ctx.degrees)
    names = ",".join(ctx.names)
    ring_vars = ",".join(alg.ring.variables)
    n = ctx.n
    lines = [
        'LIB "ncalg.lib";',
        f"intvec V = {weights};",
        f"ring A = (0,{ring_vars}), ({names}), Wp(V);",
        f"matrix C[{n}][{n}]; matrix D[{n}][{n}]; int i; int j;",
        f"for (i=1; i<={n}; i++) {{ for (j=1; j<={n}; j++) "
        "{ C[i,j] = (-1)^(V[i]*V[j]); } }",
        "ncalgebra(C, D);",
        "ideal I;",
    ]
    for g in gens:
        lines.append(f"I = I + ({g});")
    lines += ["option(redSB);", "ideal G = std(I);", "G;"]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="mdg",
        description="Exact computations with multiplications on free "
                    "resolutions.",
        epilog=GRAMMAR,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, func, help=None, document=True, json=True, mult=True):
        """A subcommand with only the flags it reads."""
        p = sub.add_parser(name, help=help)
        if document:
            p.add_argument("document", help=".mdg input file")
        if json:
            p.add_argument("--json", action="store_true",
                           help="machine-readable report")
        if mult:
            p.add_argument("--mult", help="multiplication block to use")
        p.set_defaults(func=func)
        return p

    add("check", cmd_check, help="verify complex and algebra axioms")
    p = add("assoc", cmd_assoc, help="associativity of the table")
    p.add_argument("--triple", help="a,b,c: print this associator")
    p.add_argument("--modulus",
                   help="comma-separated monomials; also reduce modulo them")
    add("alt", cmd_alt, help="the alternative property on basis pairs")
    add("submodule", cmd_submodule,
        help="the subcomplex generated by the associators")
    add("homology", cmd_homology, help="homology dimensions of the complex")
    add("quotient", cmd_quotient,
        help="homology of the maximal associative quotient")
    p = add("gb", cmd_gb, help="complete the pair relations to a basis")
    p.add_argument("--emit-script", action="store_true",
                   help="print an external CAS session instead (emit-only)")
    p = add("reduce", cmd_reduce, help="normal form against the completed "
            "pair relations")
    p.add_argument("--expr", help="expression in the generators")
    p = add("taylor", cmd_taylor, document=False, json=False, mult=False,
            help="emit the Taylor algebra of a monomial ideal")
    p.add_argument("--ring", help="comma-separated variable names")
    p.add_argument("--ideal", help="comma-separated monomial generators")
    p = add("cone", cmd_cone, json=False,
            help="adjoin an exterior generator e, d(e)=r")
    p.add_argument("--expr", help="the ring element r")
    p.add_argument("--prefix", default="E",
                   help="name prefix for the adjoined part")
    p = add("sym", cmd_sym, help="the truncated symmetric DG algebra")
    p.add_argument("--truncate", type=int, default=4,
                   help="total-degree truncation (default 4)")
    add("transport", cmd_transport, mult=False,
        help="pull a multiplication along a splitting in the document")
    p = add("perturb", cmd_perturb, help="perturb the table by a random "
            "homotopy and re-check the axioms")
    p.add_argument("--seed", type=int, default=0)
    return top


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: `parse_args` returns a fresh namespace and
    keeps nothing in the parser, so calls share no state through it."""
    return build_parser()


def run_command(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_OK if not e.code else EXIT_INPUT
    try:
        return args.func(args)
    except (CLIError, DocumentError, ComplexError, MDGError,
            SymError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
