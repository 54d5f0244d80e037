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
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
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
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(Token("sym", sym, line, col))
                col += len(sym)
                i += len(sym)
                break
        else:
            raise DocumentError(f"unexpected character {ch!r}", line, col)
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


# -- evaluation over a complex: values are Elements; scalars live on UNIT ----


def _pure_scalar(v: Element):
    """The coefficient if v is supported on the unit only, else None."""
    if not v.coeffs:
        return v.complex.ring.zero
    if set(v.coeffs) == {UNIT}:
        return v.coeffs[UNIT]
    return None


def _inverse_scalar(ring: Ring, s):
    """1/s; coefficients are Laurent polynomials, so s must be a Laurent
    monomial."""
    if not s.is_monomial():
        raise DocumentError(f"cannot divide by {s}: a divisor must be a "
                            "monomial")
    return laurent(ring, s).inverse()


def eval_element(node, cx: FreeComplex) -> Element:
    ring = cx.ring
    kind = node[0]
    if kind == "num":
        return cx.element({UNIT: ring.const(node[1])})
    if kind == "name":
        name, pos = node[1], node[2]
        if name in ring.variables:
            return cx.element({UNIT: ring.var(name)})
        if name in cx.basis:
            return cx.elem(name)
        raise DocumentError(f"unknown name {name!r}", *pos)
    if kind == "neg":
        return -eval_element(node[1], cx)
    if kind in ("add", "sub"):
        a = eval_element(node[1], cx)
        b = eval_element(node[2], cx)
        return a + b if kind == "add" else a - b
    if kind == "mul":
        a = eval_element(node[1], cx)
        b = eval_element(node[2], cx)
        sa, sb = _pure_scalar(a), _pure_scalar(b)
        if sb is not None:
            return a.scale(sb)
        if sa is not None:
            return b.scale(sa)
        raise DocumentError("cannot multiply two basis elements here; "
                            "products belong in a mult block")
    if kind == "div":
        a = eval_element(node[1], cx)
        b = eval_element(node[2], cx)
        sb = _pure_scalar(b)
        if sb is None or sb.is_zero():
            raise DocumentError("division is only defined by a nonzero scalar")
        return a.scale(_inverse_scalar(ring, sb))
    if kind == "pow":
        base = eval_element(node[1], cx)
        s = _pure_scalar(base)
        if s is None:
            raise DocumentError("only scalars can be raised to a power here",
                                *node[3])
        return cx.element({UNIT: s ** node[2]})
    raise DocumentError(f"bad expression node {kind!r}")


def parse_element(text: str, cx: FreeComplex) -> Element:
    return eval_element(parse_expression_string(text), cx)


# -- evaluation in a free graded-commutative algebra -------------------------


def eval_gcpoly(node, ctx: GCContext) -> GCPoly:
    ring = ctx.ring
    kind = node[0]
    if kind == "num":
        return ctx.one.scale(node[1])
    if kind == "name":
        name, pos = node[1], node[2]
        if name in ring.variables:
            return ctx.one.scale(ring.var(name))
        if name in ctx.names:
            return ctx.gen(name)
        raise DocumentError(f"unknown name {name!r}", *pos)
    if kind == "neg":
        return -eval_gcpoly(node[1], ctx)
    if kind in ("add", "sub"):
        a = eval_gcpoly(node[1], ctx)
        b = eval_gcpoly(node[2], ctx)
        return a + b if kind == "add" else a - b
    if kind == "mul":
        return eval_gcpoly(node[1], ctx) * eval_gcpoly(node[2], ctx)
    if kind == "div":
        b = eval_gcpoly(node[2], ctx)
        if set(b.terms) != {ctx.zero_mono}:
            raise DocumentError("division is only defined by a nonzero scalar")
        return eval_gcpoly(node[1], ctx).scale(
            _inverse_scalar(ring, b.terms[ctx.zero_mono]))
    if kind == "pow":
        base = eval_gcpoly(node[1], ctx)
        acc = ctx.one
        for _ in range(node[2]):
            acc = acc * base
        return acc
    raise DocumentError(f"bad expression node {kind!r}")


def parse_gcpoly(text: str, ctx: GCContext) -> GCPoly:
    return eval_gcpoly(parse_expression_string(text), ctx)


# ---------------------------------------------------------------------------
# documents


class Document:
    """A parsed document: one ring plus named complexes, multiplication
    tables, chain maps and homotopies."""

    def __init__(self):
        self.ring: Ring = None
        self.complexes: dict[str, FreeComplex] = {}
        self.mults: dict[str, Multiplication] = {}
        self.mult_complex: dict[str, str] = {}
        self.maps: dict[str, ChainMap] = {}
        self.map_spans: dict[str, tuple] = {}
        self.homotopies: dict[str, Homotopy] = {}
        self.homotopy_complex: dict[str, str] = {}

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
        cx = self.complexes[self.mult_complex[mult_name]]
        return MDGAlgebra(cx, self.mults[mult_name])

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


def _parse_mult(ts: _TokenStream, doc: Document, semantic: list):
    name_tok = ts.expect_id()
    _require_ring(doc, name_tok)
    on = ts.expect_id()
    if on.value != "on":
        raise DocumentError("expected 'on'", on.line, on.col)
    cx_tok = ts.expect_id()
    if cx_tok.value not in doc.complexes:
        raise DocumentError(f"unknown complex {cx_tok.value!r}",
                            cx_tok.line, cx_tok.col)
    cx = doc.complexes[cx_tok.value]
    mult = Multiplication(cx, name_tok.value)
    ts.expect_sym("{")
    while not ts.at_sym("}"):
        left = ts.expect_id()
        ts.expect_sym("*")
        right = ts.expect_id()
        ts.expect_sym("=")
        ast = parse_expression(ts)
        ts.expect_sym(";")
        if left.value not in cx.basis or right.value not in cx.basis:
            semantic.append(f"line {left.line}: product of unknown basis "
                            f"elements {left.value!r}*{right.value!r}")
            continue
        try:
            mult.set_product(left.value, right.value, eval_element(ast, cx))
        except (DocumentError, MDGError) as e:
            semantic.append(f"line {left.line}: {e}")
    ts.expect_sym("}")
    doc.mults[name_tok.value] = mult
    doc.mult_complex[name_tok.value] = cx_tok.value


def _parse_map(ts: _TokenStream, doc: Document, semantic: list):
    name_tok = ts.expect_id()
    _require_ring(doc, name_tok)
    ts.expect_sym(":")
    src = ts.expect_id()
    ts.expect_sym("->")
    dst = ts.expect_id()
    for tok in (src, dst):
        if tok.value not in doc.complexes:
            raise DocumentError(f"unknown complex {tok.value!r}",
                                tok.line, tok.col)
    source = doc.complexes[src.value]
    target = doc.complexes[dst.value]
    phi = ChainMap(source, target, name_tok.value)
    ts.expect_sym("{")
    while not ts.at_sym("}"):
        bname = ts.expect_id()
        ts.expect_sym("=")
        ast = parse_expression(ts)
        ts.expect_sym(";")
        if bname.value not in source.basis:
            semantic.append(f"line {bname.line}: image of unknown basis "
                            f"element {bname.value!r}")
            continue
        try:
            phi.set_image(bname.value, eval_element(ast, target))
        except (DocumentError, MDGError) as e:
            semantic.append(f"line {bname.line}: {e}")
    ts.expect_sym("}")
    doc.maps[name_tok.value] = phi
    doc.map_spans[name_tok.value] = (src.value, dst.value)


def _parse_homotopy(ts: _TokenStream, doc: Document, semantic: list):
    name_tok = ts.expect_id()
    _require_ring(doc, name_tok)
    on = ts.expect_id()
    if on.value != "on":
        raise DocumentError("expected 'on'", on.line, on.col)
    cx_tok = ts.expect_id()
    if cx_tok.value not in doc.complexes:
        raise DocumentError(f"unknown complex {cx_tok.value!r}",
                            cx_tok.line, cx_tok.col)
    cx = doc.complexes[cx_tok.value]
    h = Homotopy(cx, name_tok.value)
    ts.expect_sym("{")
    while not ts.at_sym("}"):
        left = ts.expect_id()
        ts.expect_sym("|")
        right = ts.expect_id()
        ts.expect_sym("=")
        ast = parse_expression(ts)
        ts.expect_sym(";")
        if left.value not in cx.basis or right.value not in cx.basis:
            semantic.append(f"line {left.line}: homotopy on unknown basis "
                            f"elements {left.value!r}|{right.value!r}")
            continue
        try:
            h.set_value(left.value, right.value, eval_element(ast, cx))
        except (DocumentError, MDGError) as e:
            semantic.append(f"line {left.line}: {e}")
    ts.expect_sym("}")
    doc.homotopies[name_tok.value] = h
    doc.homotopy_complex[name_tok.value] = cx_tok.value


# ---------------------------------------------------------------------------
# canonical printing


def format_document(doc: Document) -> str:
    lines = []
    if doc.ring is not None:
        lines.append("ring " + ", ".join(doc.ring.variables) + ";")
        lines.append("")
    for name, cx in doc.complexes.items():
        lines.append(f"complex {name} {{")
        by_degree: dict[int, list] = {}
        for bname in cx.order:
            if bname == UNIT:
                continue
            by_degree.setdefault(cx.basis[bname].degree, []).append(bname)
        for degree in sorted(by_degree):
            items = ", ".join(
                f"{b} mdeg({', '.join(str(e) for e in cx.basis[b].mdeg)})"
                for b in by_degree[degree])
            lines.append(f"  basis {degree}: {items};")
        for bname in cx.order:
            if bname == UNIT or bname not in cx.diff:
                continue
            lines.append(f"  d {bname} = {cx.format_element(cx.diff[bname])};")
        lines.append("}")
        lines.append("")
    for name, mult in doc.mults.items():
        cx = mult.complex
        lines.append(f"mult {name} on {doc.mult_complex[name]} {{")
        for left, right in sorted(mult.table,
                                  key=lambda p: (cx.order.index(p[0]),
                                                 cx.order.index(p[1]))):
            lines.append(f"  {left}*{right} = "
                         f"{cx.format_element(mult.table[(left, right)])};")
        lines.append("}")
        lines.append("")
    for name, phi in doc.maps.items():
        src, dst = doc.map_spans[name]
        lines.append(f"map {name}: {src} -> {dst} {{")
        for bname in phi.source.order:
            if bname not in phi.images:
                continue
            lines.append(f"  {bname} = "
                         f"{phi.target.format_element(phi.images[bname])};")
        lines.append("}")
        lines.append("")
    for name, h in doc.homotopies.items():
        cx = h.complex
        lines.append(f"homotopy {name} on {doc.homotopy_complex[name]} {{")
        for left, right in sorted(h.table,
                                  key=lambda p: (cx.order.index(p[0]),
                                                 cx.order.index(p[1]))):
            lines.append(f"  {left}|{right} = "
                         f"{cx.format_element(h.table[(left, right)])};")
        lines.append("}")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n" if lines else ""
