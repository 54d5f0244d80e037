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

Tokens are plain strings, with "" for the end of file, as defined by one
regular expression, `_TOKEN`.  `tokenize` splits an ASCII text whose chunks
are symbols, digit runs and names by str methods (`_split`), which gives
the list that `_TOKEN.findall` gives, and reads any other text with
`_TOKEN.findall`.  A token's kind follows from its string: an ASCII digit
first makes an int, a member of `_SYMBOLS` a symbol, anything else a name,
which must start with a letter or "_".  The parser walks the list by
index; AST nodes and semantic messages hold token indices, and `_positions`
turns those into line and column, walking `_TOKEN`, only when a
`DocumentError` is raised.  In a mult, map or homotopy block each distinct
token run of an entry value is evaluated once, and the entries that repeat
it share its Element.
One evaluator, `_evaluator`, combines plain coefficient dicts for elements
of a complex and of the free graded-commutative algebra alike.  A chain of
terms joined by + and -, or of factors joined by * and /, is one AST node
that the evaluator reads in a loop, so only nesting costs stack; nesting
past the stack raises DocumentError("expression nested too deeply").
"""

from __future__ import annotations

import re

from .complexes import UNIT, ComplexError, Element, FreeComplex
from .gcalg import GCContext, GCPoly
from .mdg import ChainMap, Homotopy, MDGAlgebra, MDGError, Multiplication
from .ring import Ring, add_term, laurent


class DocumentError(Exception):
    """Syntax or semantic error in a document, with source position."""

    def __init__(self, message: str, line: int = None, col: int = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)


class _Fault(DocumentError):
    """A DocumentError whose position is still the token index `at` (None
    for none); the entry point that holds the text locates it."""

    def __init__(self, message: str, at: int = None):
        super().__init__(message)
        self.message = message
        self.at = at


# the message for a RecursionError of the parser or the evaluator
_TOO_DEEP = "expression nested too deeply"


# ---------------------------------------------------------------------------
# tokenizer

_SYMBOLS = frozenset(("->", "{", "}", "(", ")", ";", ",", ":", "=", "+", "-",
                      "*", "/", "^", "|"))
_DIGITS = frozenset("0123456789")
# first characters of the tokens that are not names; "" ends the file
_NOT_NAME = _DIGITS | {s[0] for s in _SYMBOLS} | {""}
# first characters, other than letters, of the tokens that are not symbols
_LEADS = _DIGITS | {"_", ""}
# blanks and comments, then one token: ASCII digits, a run of word
# characters, an arrow, any other single character, or the end of the text
_TOKEN = re.compile(r"(?:[ \t\r\n]+|#[^\n]*)*([0-9]+|\w+|->|[^ \t\r\n#]|\Z)")
# what `_split` cannot read: NUL, which it writes for "->", and the blanks
# that str.split() splits on but _TOKEN does not skip
_UNSPLIT = re.compile(r"[\0\x0b\x0c\x1c-\x1f]")
_PADDED = [(s, f" {s} ") for s in _SYMBOLS if s != "->"]


def _split(text: str):
    """The tokens of `_TOKEN.findall` by str methods, ended by "", for an
    ASCII text without the characters of `_UNSPLIT` whose chunks are
    symbols, digit runs and names; None for any other text."""
    if not text.isascii() or _UNSPLIT.search(text):
        return None
    if "#" in text:
        text = "\n".join(line.partition("#")[0] for line in text.split("\n"))
    text = text.replace("->", "\0")
    for sym, padded in _PADDED:
        text = text.replace(sym, padded)
    toks = text.replace("\0", " -> ").split()
    for chunk in set(toks):
        if not (chunk in _SYMBOLS or chunk.isidentifier() or chunk.isdigit()):
            return None     # "12ab", or a character that starts no token
    toks.append("")
    return toks


def tokenize(text: str) -> list:
    """The token strings of text, ended by "".  A character that starts no
    token raises DocumentError, before any parsing."""
    toks = _split(text)
    if toks is not None:
        return toks
    toks = _TOKEN.findall(text)
    if len(toks) > 1 and not toks[-2]:
        del toks[-1]        # after trailing blanks the end matches again
    bad = [s for s in set(toks)
           if not (s in _SYMBOLS or s[:1] in _LEADS or s[0].isalpha())]
    if bad:
        at = min(map(toks.index, bad))
        raise _located(text, f"unexpected character {toks[at][0]!r}", at)
    return toks


def is_name(token: str) -> bool:
    """Whether a token string of `tokenize` is a name."""
    return token[:1] not in _NOT_NAME


def _positions(text: str, ats) -> dict:
    """{token index: (line, col)} for the token indices ats of
    tokenize(text), from one walk of the token regex.  The end of the file
    after a comment on the last line sits at that comment's '#'."""
    want, out, line, counted = set(ats), {}, 1, 0
    for at, m in enumerate(_TOKEN.finditer(text)):
        if len(out) == len(want):
            break
        if at in want:
            offset, comment = m.start(1), text.find("#", text.rfind("\n") + 1)
            if not m.group(1) and comment >= 0:
                offset = comment
            line += text.count("\n", counted, offset)
            counted = offset
            out[at] = (line, offset - text.rfind("\n", 0, offset))
    return out


def _located(text: str, message: str, at) -> DocumentError:
    if at is None:
        return DocumentError(message)
    return DocumentError(message, *_positions(text, (at,))[at])


def _shown(tok: str):
    """A token as error messages show it: an int as its value, the end of
    file as None."""
    return int(tok) if tok[:1] in _DIGITS else tok or None


def _expect(toks: list, i: int, sym: str) -> int:
    """The index after the symbol sym at index i."""
    if toks[i] != sym:
        raise _Fault(f"expected {sym!r}, got {_shown(toks[i])!r}", i)
    return i + 1


def _name(toks: list, i: int) -> str:
    if toks[i][:1] in _NOT_NAME:
        raise _Fault(f"expected a name, got {_shown(toks[i])!r}", i)
    return toks[i]


def _int(toks: list, i: int) -> int:
    if toks[i][:1] not in _DIGITS:
        raise _Fault(f"expected an integer, got {_shown(toks[i])!r}", i)
    return int(toks[i])


# ---------------------------------------------------------------------------
# expression AST (shared by element and algebra evaluation); each parse
# function takes the token index to start at and returns (AST, next index)


def parse_expression(toks: list, i: int) -> tuple:
    """expr := term (('+'|'-') term)*, a chain of two or more terms being
    one node ("sum", first, [(op, term), ...])."""
    node, i = _parse_term(toks, i)
    rest = []
    while (op := toks[i]) == "+" or op == "-":
        rhs, i = _parse_term(toks, i + 1)
        rest.append((op, rhs))
    return (("sum", node, rest) if rest else node), i


def _parse_term(toks: list, i: int) -> tuple:
    """term := factor (('*'|'/') factor)*, a chain of two or more factors
    being one node ("product", first, [(op, factor), ...])."""
    node, i = _parse_factor(toks, i)
    rest = []
    while (op := toks[i]) == "*" or op == "/":
        rhs, i = _parse_factor(toks, i + 1)
        rest.append((op, rhs))
    return (("product", node, rest) if rest else node), i


def _parse_factor(toks: list, i: int) -> tuple:
    """factor := ('-'|'+') factor | atom ['^' int], and
    atom := int | name | '(' expr ')'"""
    t = toks[i]
    if t == "-":
        node, i = _parse_factor(toks, i + 1)
        return ("neg", node), i
    if t == "+":
        return _parse_factor(toks, i + 1)
    if t == "(":
        node, i = parse_expression(toks, i + 1)
        i = _expect(toks, i, ")")
    elif t[:1] in _DIGITS:
        node, i = ("num", int(t)), i + 1
    elif t[:1] not in _NOT_NAME:
        node, i = ("name", t, i), i + 1
    else:
        raise _Fault(f"unexpected token {_shown(t)!r} in expression", i)
    if toks[i] != "^":
        return node, i
    return ("pow", node, _int(toks, i + 1), i + 1), i + 2


# -- evaluation: one rule set for elements of a complex and for the free
# graded-commutative algebra --------------------------------------------------


def _evaluator(ring: Ring, coerce, generator, unit, multiply):
    """An evaluator of expression ASTs to coefficient dicts.  `coerce(c)` is
    the coefficient for the ring element c, `generator(name)` the dict of the
    named basis value or None, and a scalar's only key is `unit`.
    `multiply(a, b)` is the dict of the product of two non-scalars; without
    it (inside a complex) two non-scalars never multiply and only a scalar
    is raised to a power.  No dict holds a zero coefficient.  The values of
    names and numbers are memoised while the evaluator lives, so the dicts
    it returns must not be written."""
    memo = {}
    variables, one = set(ring.variables), ring.one

    def scalar(c):
        return {unit: coerce(c)} if not c.is_zero() else {}

    def scalar_part(terms):
        """The coefficient of a scalar, zero for the zero value, None for
        any other value."""
        if len(terms) == 1:
            return terms.get(unit)
        return None if terms else ring.zero

    def scale(terms, s):
        if s.is_zero():
            return {}
        return {k: s if v is one else s * v for k, v in terms.items()}

    def combine(op, a, b):
        """a * b or a / b, as op says."""
        s = scalar_part(b)
        if op == "/":
            if s is None or s.is_zero():
                raise _Fault("division is only defined by a nonzero scalar")
            # coefficients are Laurent polynomials: only monomials invert
            if not s.is_monomial():
                raise _Fault(f"cannot divide by {s}: a divisor must be a "
                             "monomial")
            return scale(a, laurent(ring, s).inverse())
        if s is not None:
            return scale(a, s)
        s = scalar_part(a)
        if s is not None:
            return scale(b, s)
        if multiply is not None:
            return multiply(a, b)
        raise _Fault("cannot multiply two basis elements here; products "
                     "belong in a mult block")

    def ev(node):
        kind = node[0]
        if kind == "name" or kind == "num":
            key = node[1]
            value = memo.get(key)
            if value is None:
                if kind == "num":
                    value = scalar(ring.const(key))
                elif key in variables:
                    value = scalar(ring.var(key))
                else:
                    value = generator(key)
                    if value is None:
                        raise _Fault(f"unknown name {key!r}", node[2])
                memo[key] = value
            return value
        if kind == "neg":
            return {k: -v for k, v in ev(node[1]).items()}
        if kind == "sum":
            terms = dict(ev(node[1]))
            for op, rhs in node[2]:
                for k, v in ev(rhs).items():
                    add_term(terms, k, v if op == "+" else -v)
            return terms
        a = ev(node[1])
        if kind == "product":
            for op, rhs in node[2]:
                a = combine(op, a, ev(rhs))
            return a
        if kind == "pow":
            n = node[2]
            s = scalar_part(a)
            if s is not None:
                return scalar(s ** n)
            if multiply is None:
                raise _Fault("only scalars can be raised to a power here",
                             node[3])
            power = scalar(ring.one)
            while n:            # by squaring: the algebra is associative
                if n & 1:
                    power = multiply(power, a)
                n >>= 1
                if n:
                    a = multiply(a, a)
            return power
        raise _Fault(f"bad expression node {kind!r}")

    return ev


def _element_evaluator(cx: FreeComplex):
    """Evaluates an AST to an element of cx; scalars live on UNIT."""
    basis, one = cx.basis, cx.ring.one
    ev = _evaluator(cx.ring, lambda c: c,
                    lambda name: {name: one} if name in basis else None,
                    UNIT, None)
    return lambda node: Element(cx, terms) if (terms := ev(node)) else cx.zero


def _parse_value(text: str, evaluate):
    """The value of the expression text, by evaluate(AST)."""
    toks = tokenize(text)
    try:
        node, i = parse_expression(toks, 0)
        if toks[i]:
            raise _Fault(f"trailing input {_shown(toks[i])!r}", i)
        return evaluate(node)
    except _Fault as e:
        raise _located(text, e.message, e.at) from None
    except RecursionError:
        raise DocumentError(_TOO_DEEP) from None


def parse_element(text: str, cx: FreeComplex) -> Element:
    return _parse_value(text, _element_evaluator(cx))


def eval_gcpoly(node, ctx: GCContext) -> GCPoly:
    """An element of the free graded-commutative algebra of ctx."""
    ring = ctx.ring
    terms = _evaluator(
        ring, lambda c: laurent(ring, c),
        lambda name: ctx.gen(name).terms if name in ctx.names else None,
        ctx.zero_mono,
        lambda a, b: (GCPoly(ctx, a) * GCPoly(ctx, b)).terms)(node)
    return GCPoly(ctx, dict(terms)) if terms else ctx.zero


def parse_gcpoly(text: str, ctx: GCContext) -> GCPoly:
    return _parse_value(text, lambda node: eval_gcpoly(node, ctx))


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
    toks = tokenize(text)
    doc = Document()
    # (token whose line prefixes the message, message, token whose line
    # and column prefix it), each token index possibly None
    semantic: list[tuple] = []
    i = 0
    try:
        while toks[i]:
            statement = _STATEMENTS.get(_name(toks, i))
            if statement is None:
                raise _Fault(f"unknown statement {toks[i]!r}", i)
            i = statement(toks, i + 1, doc, semantic)
    except _Fault as e:
        raise _located(text, e.message, e.at) from None
    except RecursionError:
        raise DocumentError(_TOO_DEEP) from None
    if semantic:
        pos = _positions(text, [at for line_at, _, fault_at in semantic
                                for at in (line_at, fault_at) if at is not None])
        raise DocumentError("; ".join(
            (f"line {pos[line_at][0]}: " if line_at is not None else "")
            + ("line {}, col {}: ".format(*pos[fault_at])
               if fault_at is not None else "") + message
            for line_at, message, fault_at in semantic))
    return doc


# Each statement parser takes the index after its keyword and returns the
# index after the statement.


def _require_ring(doc: Document, at: int):
    if doc.ring is None:
        raise _Fault("a ring declaration must come first", at)


def _parse_ring(toks: list, i: int, doc: Document, semantic: list) -> int:
    if doc.ring is not None:
        raise _Fault("duplicate ring declaration", i - 1)
    names = [_name(toks, i)]
    while toks[i + 1] == ",":
        i += 2
        if _name(toks, i) in names:
            raise _Fault(f"duplicate variable {toks[i]!r}", i)
        names.append(toks[i])
    i = _expect(toks, i + 1, ";")
    doc.ring = Ring(names)
    return i


def _parse_complex(toks: list, i: int, doc: Document, semantic: list) -> int:
    name = _name(toks, i)
    _require_ring(doc, i)
    if name in doc.complexes:
        raise _Fault(f"duplicate complex {name!r}", i)
    i = _expect(toks, i + 1, "{")
    ring = doc.ring
    nvars = len(ring.variables)
    basis = []          # (name, degree, mdeg-or-None, token index)
    diffs = []          # (name, ast, token index)
    while toks[i] != "}":
        kw = _name(toks, i)
        if kw == "basis":
            degree = _int(toks, i + 1)
            i = _expect(toks, i + 2, ":")
            while True:
                at, bname = i, _name(toks, i)
                if bname in ring.variables:
                    raise _Fault(f"basis element {bname!r} has the name of a "
                                 "ring variable", at)
                mdeg = None
                i += 1
                if toks[i] == "mdeg":
                    i = _expect(toks, i + 1, "(")
                    ints = [_int(toks, i)]
                    while toks[i + 1] == ",":
                        i += 2
                        ints.append(_int(toks, i))
                    i = _expect(toks, i + 1, ")")
                    if len(ints) != nvars:
                        raise _Fault(f"mdeg has {len(ints)} entries for a ring "
                                     f"with {nvars} variables", at)
                    mdeg = tuple(ints)
                basis.append((bname, degree, mdeg, at))
                if toks[i] != ",":
                    break
                i += 1
            i = _expect(toks, i, ";")
        elif kw == "d":
            at, bname = i + 1, _name(toks, i + 1)
            ast, i = parse_expression(toks, _expect(toks, i + 2, "="))
            i = _expect(toks, i, ";")
            diffs.append((bname, ast, at))
        else:
            raise _Fault(f"unknown complex statement {kw!r}", i)
    doc.complexes[name] = _build_complex(ring, name, basis, diffs, semantic)
    return i + 1


def _build_complex(ring, name, basis, diffs, semantic: list) -> FreeComplex:
    cx = FreeComplex(ring, name)
    last_degree = 0
    for bname, degree, mdeg, at in basis:
        if degree < last_degree:
            semantic.append((at, f"basis element {bname!r} of degree {degree} "
                             f"declared after degree {last_degree}; "
                             "declaration order must be nondecreasing in "
                             "homological degree", None))
        last_degree = max(last_degree, degree)
        try:
            cx.add_basis(bname, degree, mdeg if mdeg is not None
                         else ring.zero_mono)
        except ComplexError as e:
            semantic.append((at, str(e), None))
    inferred = {bname for bname, _, mdeg, _ in basis if mdeg is None}
    evaluate = _element_evaluator(cx)
    stored = []
    for bname, ast, at in diffs:
        if bname not in cx.basis:
            semantic.append((at, f"d of unknown basis element {bname!r}",
                             None))
            continue
        try:
            cx.set_diff(bname, evaluate(ast))
        except _Fault as e:
            semantic.append((None, e.message, e.at))
        else:
            stored.append((at, [bname]))
    if len(stored) != len(cx.diff):
        _repeats(stored, "", "second d of basis element", semantic)
    # infer missing multidegrees from the differential, bottom degree up
    for bname in sorted(inferred, key=lambda b: cx.basis[b].degree):
        img = cx.diff.get(bname)
        if img is not None and not img.is_zero():
            try:
                cx.basis[bname].mdeg = img.multidegree()
            except ComplexError as e:
                semantic.append((None, f"cannot infer mdeg of {bname!r}: {e}",
                                 None))
    return cx


def _complex_named(doc: Document, toks: list, at: int) -> FreeComplex:
    if toks[at] not in doc.complexes:
        raise _Fault(f"unknown complex {toks[at]!r}", at)
    return doc.complexes[toks[at]]


def _parse_on(toks: list, i: int, doc: Document, what: str, blocks: dict):
    """The header `<name> on <complex>` of a mult or homotopy block: (name,
    complex, index after the header).  A name in blocks is a duplicate."""
    name = _name(toks, i)
    _require_ring(doc, i)
    if name in blocks:
        raise _Fault(f"duplicate {what} {name!r}", i)
    if _name(toks, i + 1) != "on":
        raise _Fault("expected 'on'", i + 1)
    _name(toks, i + 2)
    return name, _complex_named(doc, toks, i + 2), i + 3


def _repeats(stored: list, sep: str, what: str, semantic: list):
    """A semantic error `what` at each entry of stored, (token index, key
    names), whose key an earlier entry has: the names in order, or as a set
    when they are the factors of a product (sep "*")."""
    key = frozenset if sep == "*" else tuple
    seen = set()
    for at, names in stored:
        if key(names) in seen:
            semantic.append((at, f"{what} "
                             + sep.join(repr(n) for n in names), None))
        seen.add(key(names))


def _parse_entries(toks: list, i: int, semantic: list, sep: str, basis,
                   unknown: str, cx: FreeComplex, store, table: dict) -> int:
    """The body `{ key = expr; ... }` of a mult, map or homotopy block.  A
    key is one basis name, or two joined by `sep`.  Each value is an element
    of cx handed to `store(*names, value)`, which files it in `table`.  A
    key outside `basis`, a value that does not evaluate or store, and a
    second entry for a key are semantic errors.  Repeats are looked for only
    when the table holds fewer entries than were stored.

    An entry of the shape `name sep name = run ;` is found by its ";".  Each
    distinct token run is parsed and evaluated once per block, and the
    entries that repeat it share its Element; any other entry is read token
    by token, which raises its syntax error."""
    evaluate = _element_evaluator(cx)
    index = toks.index
    values = {}         # token run -> its Element
    width = 4 if sep else 2     # tokens of `key =`
    stored = []
    i = _expect(toks, i, "{")
    while toks[i] != "}":
        at, start = i, i + width
        try:
            end = index(";", i)
        except ValueError:
            end = i
        if (end > start and toks[start - 1] == "="
                and (not sep or toks[i + 1] == sep)
                and toks[i][:1] not in _NOT_NAME
                and toks[start - 2][:1] not in _NOT_NAME):
            names = [toks[i], toks[start - 2]] if sep else [toks[i]]
            run = tuple(toks[start:end])
            value = values.get(run)
            if value is None:
                ast, i = parse_expression(toks, start)
                if i != end:
                    _expect(toks, i, ";")
            i = end + 1
        else:
            names, run, value = [_name(toks, i)], None, None
            if sep:
                i = _expect(toks, i + 1, sep)
                names.append(_name(toks, i))
            ast, i = parse_expression(toks, _expect(toks, i + 1, "="))
            i = _expect(toks, i, ";")
        if names[0] not in basis or names[-1] not in basis:
            semantic.append((at, f"{unknown} "
                             + sep.join(repr(n) for n in names), None))
            continue
        try:
            if value is None:
                value = evaluate(ast)
                if run is not None:
                    values[run] = value
            store(*names, value)
        except _Fault as e:
            semantic.append((at, e.message, e.at))
        except MDGError as e:
            semantic.append((at, str(e), None))
        else:
            stored.append((at, names))
    if len(stored) != len(table):
        _repeats(stored, sep, "second " + unknown.replace("unknown ", ""),
                 semantic)
    return i + 1


def _parse_mult(toks: list, i: int, doc: Document, semantic: list) -> int:
    name, cx, i = _parse_on(toks, i, doc, "mult", doc.mults)
    mult = Multiplication(cx, name)
    i = _parse_entries(toks, i, semantic, "*", cx.basis,
                       "product of unknown basis elements", cx,
                       mult.set_product, mult.table)
    doc.mults[name] = mult
    return i


def _parse_map(toks: list, i: int, doc: Document, semantic: list) -> int:
    name = _name(toks, i)
    _require_ring(doc, i)
    if name in doc.maps:
        raise _Fault(f"duplicate map {name!r}", i)
    src = _expect(toks, i + 1, ":")
    _name(toks, src)
    dst = _expect(toks, src + 1, "->")
    _name(toks, dst)
    source = _complex_named(doc, toks, src)
    target = _complex_named(doc, toks, dst)
    phi = ChainMap(source, target, name)
    i = _parse_entries(toks, dst + 1, semantic, "", source.basis,
                       "image of unknown basis element", target,
                       phi.set_image, phi.images)
    doc.maps[name] = phi
    return i


def _parse_homotopy(toks: list, i: int, doc: Document, semantic: list) -> int:
    name, cx, i = _parse_on(toks, i, doc, "homotopy", doc.homotopies)
    h = Homotopy(cx, name)
    i = _parse_entries(toks, i, semantic, "|", cx.basis,
                       "homotopy on unknown basis elements", cx, h.set_value,
                       h.table)
    doc.homotopies[name] = h
    return i


_STATEMENTS = {"ring": _parse_ring, "complex": _parse_complex,
               "mult": _parse_mult, "map": _parse_map,
               "homotopy": _parse_homotopy}


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
