"""Plain-text document language for rings, complexes, multiplication tables,
chain maps and homotopies, plus the shared expression grammar.

Grammar sketch::

    document  := statement*
    statement := "ring" id ("," id)* ";"
               | "complex" id "{" cstmt* "}"
               | "mult" id "on" id "{" (name "*" name "=" expr ";")* "}"
               | "map" id ":" id "->" id "{" (name "=" expr ";")* "}"
               | "homotopy" id "on" id "{" (name "|" name "=" expr ";")* "}"
    cstmt     := "basis" int ":" bitem ("," bitem)* ";"
               | "d" name "=" expr ";"
    bitem     := name ["mdeg" "(" int ("," int)* ")"]
    expr      := the usual +, -, *, /, ^ arithmetic over numbers, ring
                 variables and basis names, with parentheses

Comments run from ``#`` to end of line.  Errors carry line and column.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter

from .complexes import UNIT, ComplexError, Element, FreeComplex
from .gcalg import GCContext, GCPoly
from .mdg import ChainMap, Homotopy, MDGAlgebra, MDGError, Multiplication
from .ring import Ring, laurent


class DocumentError(Exception):
    """Syntax or semantic error in a document, with source position."""

    def __init__(self, message: str, line: int = None, col: int = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)


# ---------------------------------------------------------------------------
# tokenizer

_SYMBOLS = ("->", "{", "}", "(", ")", ";", ",", ":", "=", "+", "-", "*", "/",
            "^", "|")


class Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind        # "id" | "int" | "sym" | "eof"
        self.value = value
        self.line = line
        self.col = col

    def __repr__(self):
        return f"Token({self.kind}, {self.value!r})"


def tokenize(text: str):
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if "0" <= ch <= "9":        # str.isdigit also takes "²" and "٣"
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            tokens.append(Token("int", int(text[i:j]), line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("id", text[i:j], line, col))
            col += j - i
            i = j
            continue
        sym = "->" if text.startswith("->", i) else ch
        if sym not in _SYMBOLS:
            raise DocumentError(f"unexpected character {ch!r}", line, col)
        tokens.append(Token("sym", sym, line, col))
        col += len(sym)
        i += len(sym)
    tokens.append(Token("eof", None, line, col))
    return tokens


# ---------------------------------------------------------------------------
# expression AST (shared by element and algebra evaluation)


class _TokenStream:
    def __init__(self, tokens, pos=0):
        self.tokens = tokens
        self.pos = pos

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def at_sym(self, *vals) -> bool:
        t = self.peek()
        return t.kind == "sym" and t.value in vals

    def expect_sym(self, val) -> Token:
        t = self.next()
        if t.kind != "sym" or t.value != val:
            raise DocumentError(f"expected {val!r}, got {t.value!r}", t.line, t.col)
        return t

    def expect_id(self) -> Token:
        t = self.next()
        if t.kind != "id":
            raise DocumentError(f"expected a name, got {t.value!r}", t.line, t.col)
        return t

    def expect_int(self) -> Token:
        t = self.next()
        if t.kind != "int":
            raise DocumentError(f"expected an integer, got {t.value!r}", t.line, t.col)
        return t


def parse_expression(ts: _TokenStream):
    """expr := term (('+'|'-') term)*"""
    node = _parse_term(ts)
    while ts.at_sym("+", "-"):
        op = ts.next().value
        rhs = _parse_term(ts)
        node = ("add" if op == "+" else "sub", node, rhs)
    return node


def _parse_term(ts: _TokenStream):
    node = _parse_factor(ts)
    while ts.at_sym("*", "/"):
        op = ts.next().value
        rhs = _parse_factor(ts)
        node = ("mul" if op == "*" else "div", node, rhs)
    return node


def _parse_factor(ts: _TokenStream):
    if ts.at_sym("-"):
        ts.next()
        return ("neg", _parse_factor(ts))
    if ts.at_sym("+"):
        ts.next()
        return _parse_factor(ts)
    return _parse_power(ts)


def _parse_power(ts: _TokenStream):
    base = _parse_atom(ts)
    if ts.at_sym("^"):
        ts.next()
        t = ts.expect_int()
        return ("pow", base, t.value, (t.line, t.col))
    return base


def _parse_atom(ts: _TokenStream):
    t = ts.peek()
    if t.kind == "int":
        ts.next()
        return ("num", Fraction(t.value))
    if t.kind == "id":
        ts.next()
        return ("name", t.value, (t.line, t.col))
    if ts.at_sym("("):
        ts.next()
        node = parse_expression(ts)
        ts.expect_sym(")")
        return node
    raise DocumentError(f"unexpected token {t.value!r} in expression", t.line, t.col)


def parse_expression_string(text: str) -> tuple:
    ts = _TokenStream(tokenize(text))
    node = parse_expression(ts)
    t = ts.peek()
    if t.kind != "eof":
        raise DocumentError(f"trailing input {t.value!r}", t.line, t.col)
    return node


# -- evaluation: one rule set for elements of a complex and for the free
# graded-commutative algebra --------------------------------------------------


def _scalar_part(terms: dict, unit, ring: Ring):
    """The coefficient of a value whose only key is `unit`, zero for the
    zero value, None for any other value."""
    if len(terms) == 1:
        return terms.get(unit)
    return None if terms else ring.zero


def _evaluate(node, ring: Ring, scalar, generator, terms, unit,
              products: bool):
    """Evaluate an expression AST.  `scalar(c)` is the value of the ring
    coefficient c, `generator(name)` the named basis value or None, and
    `terms(v)` the coefficient dict of a value v; a scalar's only key is
    `unit`.  Without `products` (inside a complex) two non-scalars never
    multiply and only a scalar is raised to a power."""
    def ev(node):
        kind = node[0]
        if kind == "num":
            return scalar(node[1])
        if kind == "name":
            name, pos = node[1], node[2]
            if name in ring.variables:
                return scalar(ring.var(name))
            value = generator(name)
            if value is None:
                raise DocumentError(f"unknown name {name!r}", *pos)
            return value
        if kind == "neg":
            return -ev(node[1])
        a = ev(node[1])
        if kind == "pow":
            s = _scalar_part(terms(a), unit, ring)
            if s is not None:
                return scalar(s ** node[2])
            if not products:
                raise DocumentError("only scalars can be raised to a power "
                                    "here", *node[3])
            acc = scalar(Fraction(1))
            for _ in range(node[2]):
                acc = acc * a
            return acc
        b = ev(node[2])
        if kind == "add":
            return a + b
        if kind == "sub":
            return a - b
        sb = _scalar_part(terms(b), unit, ring)
        if kind == "div":
            if sb is None or sb.is_zero():
                raise DocumentError("division is only defined by a nonzero "
                                    "scalar")
            # coefficients are Laurent polynomials: only monomials invert
            if not sb.is_monomial():
                raise DocumentError(f"cannot divide by {sb}: a divisor must "
                                    "be a monomial")
            return a.scale(laurent(ring, sb).inverse())
        if kind != "mul":
            raise DocumentError(f"bad expression node {kind!r}")
        if sb is not None:
            return a.scale(sb)
        sa = _scalar_part(terms(a), unit, ring)
        if sa is not None:
            return b.scale(sa)
        if products:
            return a * b
        raise DocumentError("cannot multiply two basis elements here; "
                            "products belong in a mult block")

    return ev(node)


def eval_element(node, cx: FreeComplex) -> Element:
    """An element of cx; scalars live on UNIT."""
    return _evaluate(node, cx.ring, lambda c: cx.element({UNIT: c}),
                     lambda name: cx.elem(name) if name in cx.basis else None,
                     attrgetter("coeffs"), UNIT, products=False)


def parse_element(text: str, cx: FreeComplex) -> Element:
    return eval_element(parse_expression_string(text), cx)


def eval_gcpoly(node, ctx: GCContext) -> GCPoly:
    """An element of the free graded-commutative algebra of ctx."""
    return _evaluate(node, ctx.ring, ctx.one.scale,
                     lambda name: ctx.gen(name) if name in ctx.names else None,
                     attrgetter("terms"), ctx.zero_mono, products=True)


def parse_gcpoly(text: str, ctx: GCContext) -> GCPoly:
    return eval_gcpoly(parse_expression_string(text), ctx)


# ---------------------------------------------------------------------------
# documents


class Document:
    """A parsed document: one ring plus named complexes, multiplication
    tables, chain maps and homotopies.  Each table, map and homotopy knows
    the complexes it lives on."""

    def __init__(self):
        self.ring: Ring = None
        self.complexes: dict[str, FreeComplex] = {}
        self.mults: dict[str, Multiplication] = {}
        self.maps: dict[str, ChainMap] = {}
        self.homotopies: dict[str, Homotopy] = {}

    def algebra(self, mult_name: str = None) -> MDGAlgebra:
        """The algebra for the named table (default: the unique one)."""
        if mult_name is None:
            if len(self.mults) != 1:
                raise DocumentError(
                    f"document has {len(self.mults)} mult blocks; name one of "
                    f"{sorted(self.mults)}")
            mult_name = next(iter(self.mults))
        if mult_name not in self.mults:
            raise DocumentError(f"no mult block named {mult_name!r}")
        mult = self.mults[mult_name]
        return MDGAlgebra(mult.complex, mult)

    def sole_complex(self) -> FreeComplex:
        if len(self.complexes) != 1:
            raise DocumentError(
                f"document has {len(self.complexes)} complexes; name one of "
                f"{sorted(self.complexes)}")
        return next(iter(self.complexes.values()))


def parse_document(text: str) -> Document:
    ts = _TokenStream(tokenize(text))
    doc = Document()
    semantic: list[str] = []
    while ts.peek().kind != "eof":
        t = ts.expect_id()
        if t.value == "ring":
            _parse_ring(ts, doc, t)
        elif t.value == "complex":
            _parse_complex(ts, doc, semantic)
        elif t.value == "mult":
            _parse_mult(ts, doc, semantic)
        elif t.value == "map":
            _parse_map(ts, doc, semantic)
        elif t.value == "homotopy":
            _parse_homotopy(ts, doc, semantic)
        else:
            raise DocumentError(f"unknown statement {t.value!r}", t.line, t.col)
    if semantic:
        raise DocumentError("; ".join(semantic))
    return doc


def _require_ring(doc: Document, tok: Token):
    if doc.ring is None:
        raise DocumentError("a ring declaration must come first",
                            tok.line, tok.col)


def _parse_ring(ts: _TokenStream, doc: Document, tok: Token):
    if doc.ring is not None:
        raise DocumentError("duplicate ring declaration", tok.line, tok.col)
    names = [ts.expect_id().value]
    while ts.at_sym(","):
        ts.next()
        t = ts.expect_id()
        if t.value in names:
            raise DocumentError(f"duplicate variable {t.value!r}",
                                t.line, t.col)
        names.append(t.value)
    ts.expect_sym(";")
    doc.ring = Ring(names)


def _parse_complex(ts: _TokenStream, doc: Document, semantic: list):
    name_tok = ts.expect_id()
    _require_ring(doc, name_tok)
    if name_tok.value in doc.complexes:
        raise DocumentError(f"duplicate complex {name_tok.value!r}",
                            name_tok.line, name_tok.col)
    ts.expect_sym("{")
    ring = doc.ring
    nvars = len(ring.variables)
    basis = []          # (name, degree, mdeg-or-None, token)
    diffs = []          # (name, ast, token)
    while not ts.at_sym("}"):
        kw = ts.expect_id()
        if kw.value == "basis":
            degree = ts.expect_int().value
            ts.expect_sym(":")
            while True:
                bname = ts.expect_id()
                if bname.value in ring.variables:
                    raise DocumentError(
                        f"basis element {bname.value!r} has the name of a "
                        "ring variable", bname.line, bname.col)
                mdeg = None
                if ts.peek().kind == "id" and ts.peek().value == "mdeg":
                    ts.next()
                    ts.expect_sym("(")
                    ints = [ts.expect_int().value]
                    while ts.at_sym(","):
                        ts.next()
                        ints.append(ts.expect_int().value)
                    ts.expect_sym(")")
                    if len(ints) != nvars:
                        raise DocumentError(
                            f"mdeg has {len(ints)} entries for a ring with "
                            f"{nvars} variables", bname.line, bname.col)
                    mdeg = tuple(ints)
                basis.append((bname.value, degree, mdeg, bname))
                if ts.at_sym(","):
                    ts.next()
                    continue
                break
            ts.expect_sym(";")
        elif kw.value == "d":
            bname = ts.expect_id()
            ts.expect_sym("=")
            ast = parse_expression(ts)
            ts.expect_sym(";")
            diffs.append((bname.value, ast, bname))
        else:
            raise DocumentError(f"unknown complex statement {kw.value!r}",
                                kw.line, kw.col)
    ts.expect_sym("}")
    doc.complexes[name_tok.value] = _build_complex(
        ring, name_tok.value, basis, diffs, semantic)


def _build_complex(ring, name, basis, diffs, semantic: list) -> FreeComplex:
    cx = FreeComplex(ring, name)
    last_degree = 0
    for bname, degree, mdeg, tok in basis:
        if degree < last_degree:
            semantic.append(
                f"line {tok.line}: basis element {bname!r} of degree {degree} "
                f"declared after degree {last_degree}; declaration order must "
                f"be nondecreasing in homological degree")
        last_degree = max(last_degree, degree)
        try:
            cx.add_basis(bname, degree, mdeg if mdeg is not None
                         else ring.zero_mono)
        except ComplexError as e:
            semantic.append(f"line {tok.line}: {e}")
    inferred = {bname for bname, _, mdeg, _ in basis if mdeg is None}
    for bname, ast, tok in diffs:
        if bname not in cx.basis:
            semantic.append(f"line {tok.line}: d of unknown basis element "
                            f"{bname!r}")
            continue
        try:
            cx.set_diff(bname, eval_element(ast, cx))
        except DocumentError as e:
            semantic.append(str(e))
    # infer missing multidegrees from the differential, bottom degree up
    for bname in sorted(inferred, key=lambda b: cx.basis[b].degree):
        img = cx.diff.get(bname)
        if img is not None and not img.is_zero():
            try:
                cx.basis[bname].mdeg = img.multidegree()
            except ComplexError as e:
                semantic.append(f"cannot infer mdeg of {bname!r}: {e}")
    return cx


def _complex_named(doc: Document, tok: Token) -> FreeComplex:
    if tok.value not in doc.complexes:
        raise DocumentError(f"unknown complex {tok.value!r}", tok.line, tok.col)
    return doc.complexes[tok.value]


def _parse_on(ts: _TokenStream, doc: Document):
    """The header `<name> on <complex>` of a mult or homotopy block."""
    name_tok = ts.expect_id()
    _require_ring(doc, name_tok)
    on = ts.expect_id()
    if on.value != "on":
        raise DocumentError("expected 'on'", on.line, on.col)
    return name_tok.value, _complex_named(doc, ts.expect_id())


def _parse_entries(ts: _TokenStream, semantic: list, sep: str, basis,
                   unknown: str, cx: FreeComplex, store):
    """The body `{ key = expr; ... }` of a mult, map or homotopy block.  A
    key is one basis name, or two joined by `sep`.  Each value is an element
    of cx handed to `store(*names, value)`.  A key outside `basis` and a
    value that does not evaluate or store are semantic errors."""
    ts.expect_sym("{")
    while not ts.at_sym("}"):
        first = ts.expect_id()
        line, names = first.line, [first.value]
        if sep:
            ts.expect_sym(sep)
            names.append(ts.expect_id().value)
        ts.expect_sym("=")
        ast = parse_expression(ts)
        ts.expect_sym(";")
        if not basis.keys() >= set(names):
            semantic.append(f"line {line}: {unknown} "
                            + sep.join(repr(n) for n in names))
            continue
        try:
            store(*names, eval_element(ast, cx))
        except (DocumentError, MDGError) as e:
            semantic.append(f"line {line}: {e}")
    ts.expect_sym("}")


def _parse_mult(ts: _TokenStream, doc: Document, semantic: list):
    name, cx = _parse_on(ts, doc)
    mult = Multiplication(cx, name)
    _parse_entries(ts, semantic, "*", cx.basis,
                   "product of unknown basis elements", cx, mult.set_product)
    doc.mults[name] = mult


def _parse_map(ts: _TokenStream, doc: Document, semantic: list):
    name_tok = ts.expect_id()
    _require_ring(doc, name_tok)
    ts.expect_sym(":")
    src = ts.expect_id()
    ts.expect_sym("->")
    dst = ts.expect_id()
    source, target = _complex_named(doc, src), _complex_named(doc, dst)
    phi = ChainMap(source, target, name_tok.value)
    _parse_entries(ts, semantic, "", source.basis,
                   "image of unknown basis element", target, phi.set_image)
    doc.maps[name_tok.value] = phi


def _parse_homotopy(ts: _TokenStream, doc: Document, semantic: list):
    name, cx = _parse_on(ts, doc)
    h = Homotopy(cx, name)
    _parse_entries(ts, semantic, "|", cx.basis,
                   "homotopy on unknown basis elements", cx, h.set_value)
    doc.homotopies[name] = h


# ---------------------------------------------------------------------------
# canonical printing


def _block(header: str, statements) -> list:
    return [header + " {", *(f"  {s};" for s in statements), "}", ""]


def _pair_statements(table: dict, cx: FreeComplex, sep: str):
    """`a<sep>b = value` for a mult or homotopy table, in basis order."""
    pos = {name: i for i, name in enumerate(cx.order)}
    for left, right in sorted(table, key=lambda p: (pos[p[0]], pos[p[1]])):
        yield f"{left}{sep}{right} = {cx.format_element(table[(left, right)])}"


def format_document(doc: Document) -> str:
    lines = []
    if doc.ring is not None:
        lines.append("ring " + ", ".join(doc.ring.variables) + ";")
        lines.append("")
    for name, cx in doc.complexes.items():
        by_degree: dict[int, list] = {}
        for bname in cx.order:
            if bname != UNIT:
                by_degree.setdefault(cx.basis[bname].degree, []).append(bname)
        statements = [
            f"basis {degree}: " + ", ".join(
                f"{b} mdeg({', '.join(str(e) for e in cx.basis[b].mdeg)})"
                for b in by_degree[degree])
            for degree in sorted(by_degree)]
        statements += [f"d {bname} = {cx.format_element(cx.diff[bname])}"
                       for bname in cx.order
                       if bname != UNIT and bname in cx.diff]
        lines += _block(f"complex {name}", statements)
    for name, mult in doc.mults.items():
        lines += _block(f"mult {name} on {mult.complex.name}",
                        _pair_statements(mult.table, mult.complex, "*"))
    for name, phi in doc.maps.items():
        lines += _block(
            f"map {name}: {phi.source.name} -> {phi.target.name}",
            (f"{b} = {phi.target.format_element(phi.images[b])}"
             for b in phi.source.order if b in phi.images))
    for name, h in doc.homotopies.items():
        lines += _block(f"homotopy {name} on {h.complex.name}",
                        _pair_statements(h.table, h.complex, "|"))
    return "\n".join(lines).rstrip() + "\n" if lines else ""
