"""Job lists, seeded inputs and output checks for the three workloads.

A job is one in-process ``mdgkit.cli.run_command([...])`` call, or one
library call where no subcommand exists.  Every seeded input is generated by
`build` from the workload seed before measurement starts; a job only hands
the generated arguments, documents or objects to the library.

Each job carries a check.  Expected values come from three sources, named at
each use:
  TEST    the value a test in tests/ asserts (or an exit code the CLI
          contract fixes);
  ORACLE  an independent check computed here (Taylor basis counts and
          multidegrees, the outer-flip identity of associators, reduction
          modulo a monomial ideal, the perturbation theorem, the axiom check
          of a mapping cone);
  FROZEN  the output of the library at commit 2213184, where this benchmark
          was defined (table FROZEN below).
"""

from __future__ import annotations

import io
import json
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations

KNOWN = "known"        # a check result: the documented known failure
WORKLOADS = ("certify-closed", "certify-growth", "calculus")

# Verdict slots: each workload reports the time of three of its verdicts,
# heaviest first.  A certify slot is one certificate; a calculus slot is
# every job of one subcommand (sym, assoc, check).
SLOTS = ("verdict_heavy_s", "verdict_mid_s", "verdict_light_s")
CALCULUS_SLOTS = {"sym": "verdict_heavy_s", "assoc": "verdict_mid_s",
                  "check": "verdict_light_s"}

# The Taylor ideal (x^2, w^2, zw, xy) and the minimal ideal
# (y^2*w, y*z*w, x^2*y, x*z*w) whose variables the seed permutes.  Permuting
# the variables keeps the engine's work the same, so the verdict time does
# not depend on the seed.
TAYLOR4 = [(2, 0, 0, 0), (0, 0, 0, 2), (0, 0, 1, 1), (1, 1, 0, 0)]
TAYLOR4_SEEDED_BASE = [(0, 2, 0, 1), (0, 1, 1, 1), (2, 1, 0, 0), (1, 0, 1, 1)]
VARS = ("x", "y", "z", "w")

# FROZEN: outputs of the library at commit 2213184.
FROZEN = {
    "gb fk basis_size": 155,
    "gb ex6 basis_size": 40,
    "gb fa basis_size": 122,
    "presentation ex55 basis_size": 119,
    "presentation fk basis_size": 92,
    "presentation fa basis_size": 79,
    "presentation_check fa": {3: (1, 1), 4: (1, 1)},
    "homology fk": "H_0=15, H_1=0, H_2=0, H_3=0, H_4=0",
    "homology fm": "H_0=13, H_1=0, H_2=0, H_3=0, H_4=0",
    "homology fa": "H_0=8, H_1=0, H_2=0, H_3=0, H_4=0",
    "homology ex6": "H_0=66, H_1=0, H_2=0, H_3=0, H_4=0",
    "homology fk_split": "H_0=15, H_1=0, H_2=0, H_3=0, H_4=0, H_5=0",
    "assoc fm": "not associative: [e1,e2,e5] = -y^2*e123 + y*z*e124 "
                "- y*w*e134 + x*y*e234",
    "assoc fa": "not associative: [e1,e2,e5] = -y*e123 + z*e124 "
                "- w*e1345 + x*e2345",
    "assoc ex6 --triple e2,e1,e3": "-x^2*y^2*z^2*w^2*e123 "
                                   "+ x^2*y^2*z^3*w*e124 "
                                   "- x^2*y^3*z^2*w*e134 "
                                   "+ x^3*y^2*z^2*w*e234",
    "quotient fm": "H_1=0, H_2=0, H_3=0, H_4=2",
    "quotient fa": "H_1=0, H_2=0, H_3=0, H_4=1",
    "submodule fm": {"generators": 76, "inf_degree": 3, "sup_degree": 4},
    "submodule fa": {"generators": 36, "homology": {"3": 1, "4": 0},
                     "inf_degree": 3, "sup_degree": 4},
    "sym fk 2": {"0,0": 1, "1,1": 5, "2,1": 8, "2,2": 10, "3,1": 5,
                 "3,2": 40, "4,1": 1, "4,2": 61, "5,2": 45, "6,2": 18,
                 "7,2": 5, "8,2": 1},
    "sym fa 2": {"0,0": 1, "1,1": 5, "2,1": 7, "2,2": 10, "3,1": 4,
                 "3,2": 35, "4,1": 1, "4,2": 48, "5,2": 33, "6,2": 13,
                 "7,2": 4, "8,2": 1},
    "sym ex6 2": {"0,0": 1, "1,1": 4, "2,1": 6, "2,2": 6, "3,1": 4,
                  "3,2": 24, "4,1": 1, "4,2": 37, "5,2": 28, "6,2": 12,
                  "7,2": 4, "8,2": 1},
    "sym taylor_x2_xy 4": {"0,0": 1, "1,1": 2, "2,1": 1, "2,2": 1, "3,2": 2,
                           "4,2": 1, "4,3": 1, "5,3": 2, "6,3": 1, "6,4": 1,
                           "7,4": 2, "8,4": 1},
}

# TEST: values tests/ asserts.
TESTED = {
    "assoc fk prefix": "not associative: [e1,e2,e5] =",
    "assoc fk --triple e1,e5,e2": "y^2*z*e123 - y*z^2*e124 + y*z*w*e134 "
                                  "- x*y*z*e234",
    "assoc fa --triple e1,e45,e2 --modulus x^2,y,z,w":
        "x*e12345\nmodulo (x^2,y,z,w): x*e12345",
    "submodule fk": {"generators": 36, "homology": {"3": 1, "4": 0}},
    "submodule fm": {"homology": {"3": 2, "4": 0}},
    "quotient fk": "H_1=0, H_2=0, H_3=0, H_4=1",
}


class Outcome:
    __slots__ = ("code", "out", "err")

    def __init__(self, code, out, err):
        self.code, self.out, self.err = code, out, err


class Job:
    """`run()` returns the value `check(value, exc)` judges: None when the
    output is right, KNOWN for the documented known failure, else a
    message.  `slot` names the verdict metric the job's time feeds and
    `label` the verdict in the report."""

    __slots__ = ("name", "run", "check", "slot", "label")

    def __init__(self, name, run, check, slot=None, label=None):
        self.name, self.run, self.check = name, run, check
        self.slot, self.label = slot, label


# ---------------------------------------------------------------------------
# pure-Python reading of fixture documents (used for inputs and oracles)
# ---------------------------------------------------------------------------

_BASIS = re.compile(r"basis\s+(\d+)\s*:\s*([^;]*);")
_ENTRY = re.compile(r"(\w+)\s+mdeg\(")


def basis_degrees(text: str) -> dict:
    """name -> homological degree, for the first complex of a document."""
    first = text.split("complex", 2)[1]
    out = {}
    for deg, entries in _BASIS.findall(first):
        for name in _ENTRY.findall(entries):
            out[name] = int(deg)
    return out


def _mono_str(m) -> str:
    parts = [v if e == 1 else f"{v}^{e}" for v, e in zip(VARS, m) if e]
    return "*".join(parts)


def _minimal(monos) -> bool:
    return not any(a != b and all(x <= y for x, y in zip(a, b))
                   for a in monos for b in monos)


def taylor_basis(monos) -> dict:
    """ORACLE: name -> (degree, multidegree) of the Taylor complex, the
    multidegree of e_sigma being the lcm of the monomials in sigma."""
    out = {"1": (0, (0,) * len(monos[0]))}
    for size in range(1, len(monos) + 1):
        for sigma in combinations(range(len(monos)), size):
            lcm = tuple(max(monos[i][v] for i in sigma)
                        for v in range(len(monos[0])))
            out["e" + "".join(str(i + 1) for i in sigma)] = (size, lcm)
    return out


def seeded_ideal(rng, k: int):
    """A minimal ideal of k distinct nonconstant monomials, exponents <= 2."""
    while True:
        monos = [tuple(rng.randint(0, 2) for _ in VARS) for _ in range(k)]
        if (len(set(monos)) == k and all(any(m) for m in monos)
                and _minimal(monos)):
            return monos


# ---------------------------------------------------------------------------
# running and checking
# ---------------------------------------------------------------------------

class Context:
    """Library modules, fixture paths and texts, and the oracle's parsed
    documents (parsed on first use, outside any job's timing)."""

    def __init__(self, mdgkit, root):
        self.m = mdgkit
        self.fixtures = root / "src" / "mdgkit" / "fixtures"
        self.texts = {}
        self._docs = {}
        self.outputs = {}

    def path(self, name: str) -> str:
        return str(self.fixtures / f"{name}.mdg")

    def text(self, name: str) -> str:
        if name not in self.texts:
            self.texts[name] = (self.fixtures / f"{name}.mdg").read_text()
        return self.texts[name]

    def doc(self, name: str):
        if name not in self._docs:
            self._docs[name] = self.m.parser.parse_document(self.text(name))
        return self._docs[name]

    def cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.m.cli.run_command(argv)
        return Outcome(code, out.getvalue(), err.getvalue())


def _want(ok: bool, message: str):
    return None if ok else message


def expect_text(code: int, text: str):
    def check(o, exc):
        if exc is not None:
            return f"raised {exc!r}"
        return _want(o.code == code and o.out.rstrip("\n") == text,
                     f"exit {o.code}, output {o.out[:200]!r}")
    return check


def expect_prefix(code: int, prefix: str):
    def check(o, exc):
        if exc is not None:
            return f"raised {exc!r}"
        return _want(o.code == code and o.out.startswith(prefix),
                     f"exit {o.code}, output {o.out[:200]!r}")
    return check


def expect_json(code: int, **fields):
    """Exit code and the named fields of a --json payload; a callable field
    value is a predicate on the payload's value."""
    def check(o, exc):
        if exc is not None:
            return f"raised {exc!r}"
        if o.code != code:
            return f"exit {o.code}, stderr {o.err[:200]!r}"
        payload = json.loads(o.out)
        for key, want in fields.items():
            got = payload.get(key)
            if not (want(got) if callable(want) else got == want):
                return f"{key} = {str(got)[:200]}"
        return None
    return check


def _cli_job(ctx, label, argv, check):
    return Job(label, lambda: ctx.cli(argv), check)


def _gb_job(ctx, name, code, associative, size, slot):
    label = f"gb {name} --json"
    check = expect_json(code, associative=associative, basis_size=size,
                        witnesses=(lambda w: bool(w) != associative),
                        undefined=(lambda u: u == [] if associative
                                   else True))
    return Job(label, lambda: ctx.cli(["gb", ctx.path(name), "--json"]),
               check, slot, f"verdict_s.{name}")


def _taylor_certificate_job(ctx, label, ring, monos, slot=None, verdict=None):
    polys = [ring.monomial(m) for m in monos]
    k = len(monos)

    def run():
        alg = ctx.m.constructions.taylor_algebra(ring, polys)
        return ctx.m.groebner.associativity_certificate(alg)

    def check(rep, exc):
        # ORACLE: a Taylor table is associative, every product is defined,
        # and the completed basis is exactly the (2^k-1)2^k/2 pair relations.
        if exc is not None:
            return f"raised {exc!r}"
        n = 2 ** k - 1
        return _want(rep.associative and not rep.undefined_pairs
                     and len(rep.basis) == n * (n + 1) // 2,
                     f"associative={rep.associative}, undefined="
                     f"{len(rep.undefined_pairs)}, basis={len(rep.basis)}")
    return Job(f"certificate {label} {monos}", run, check, slot, verdict)


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

def spread_out(light, copies: int, heavy: list) -> list:
    """The heavy jobs in order with `copies` runs of a short job spread
    evenly between them, so that one slow spell of a shared machine does
    not catch all of them."""
    gaps = len(heavy) + 1
    out = []
    for i in range(gaps):
        out += [light] * (copies * (i + 1) // gaps - copies * i // gaps)
        out += heavy[i:i + 1]
    return out


def certify_closed(ctx, rng):
    m = ctx.m
    ring = m.ring.Ring(list(VARS))
    perm = list(range(len(VARS)))
    rng.shuffle(perm)
    seeded = [tuple(mono[p] for p in perm) for mono in TAYLOR4_SEEDED_BASE]
    fa_text = ctx.text("fa")

    def presentation():
        doc = m.parser.parse_document(fa_text)
        return m.symdg.presentation_check(doc.algebra())

    def presentation_ok(rep, exc):
        # ORACLE: the two routes agree degreewise; FROZEN: the dimensions.
        if exc is not None:
            return f"raised {exc!r}"
        return _want(rep.ok() and rep.components
                     == FROZEN["presentation_check fa"],
                     f"components {rep.components}")

    return [
        # TEST: exit 1 with witnesses; FROZEN: 155 and 122 elements.
        _gb_job(ctx, "fk", 1, False, FROZEN["gb fk basis_size"],
                "verdict_heavy_s"),
        _taylor_certificate_job(ctx, "taylor4", ring, TAYLOR4),
        _gb_job(ctx, "fa", 1, False, FROZEN["gb fa basis_size"],
                "verdict_mid_s"),
        Job("presentation_check fa", presentation, presentation_ok),
        _taylor_certificate_job(ctx, "seeded", ring, seeded,
                                "verdict_light_s", "verdict_s.taylor4_seeded"),
    ]


def _presentation_job(ctx, name, slot=None):
    """Complete the degree-1 presentation of a fixture's table: only the
    products of two degree-1 basis elements are given, and completion
    derives the rest of the basis."""
    m = ctx.m
    text = ctx.text(name)
    alg = m.parser.parse_document(text).algebra()
    degrees = basis_degrees(text)
    partial = m.mdg.Multiplication(alg.complex, "presentation")
    for a, b in alg.mult.stored_pairs():
        if degrees[a] == degrees[b] == 1:
            partial.set_product(a, b, alg.mult.product(a, b))
    pres = m.mdg.MDGAlgebra(alg.complex, partial)

    def run():
        gctx, gens = m.groebner.mult_ideal(pres)
        return gens, m.groebner.buchberger(gctx, gens)

    def check(value, exc):
        # FROZEN: the basis size; ORACLE: the basis reduces every generator
        # of the ideal to zero.
        if exc is not None:
            return f"raised {exc!r}"
        gens, basis = value
        nonzero = sum(1 for g in gens if not basis.reduce(g)[0].is_zero())
        size = FROZEN[f"presentation {name} basis_size"]
        return _want(len(basis) == size and not nonzero,
                     f"{len(basis)} elements, {nonzero} generators "
                     "do not reduce to zero")
    return Job(f"presentation {name}", run, check, slot,
               f"verdict_s.presentation_{name}")


def certify_growth(ctx, rng):
    # FROZEN: 40 elements; TEST (CLI contract): exit 1, witnesses.
    ex6 = _gb_job(ctx, "ex6", 1, False, FROZEN["gb ex6 basis_size"],
                  "verdict_light_s")
    return spread_out(ex6, 2, [
        _presentation_job(ctx, "ex55", "verdict_heavy_s"),
        _presentation_job(ctx, "fk", "verdict_mid_s"),
        _presentation_job(ctx, "fa"),
    ])


def _drop(v, gens) -> dict:
    """{basis name: {monomial: coefficient}} of an element, without the
    monomials lying in the ideal generated by the exponent tuples gens."""
    out = {}
    for basis, coeff in v.coeffs.items():
        poly = coeff.as_polynomial() if hasattr(coeff, "as_polynomial") \
            else coeff
        kept = {mono: x for mono, x in poly.terms.items()
                if not any(all(g <= e for g, e in zip(gen, mono))
                           for gen in gens)}
        if kept:
            out[basis] = kept
    return out


def _seeded_triple_jobs(ctx, name, rng):
    """assoc --triple a,b,c --modulus M and its outer flip c,b,a."""
    degrees = basis_degrees(ctx.text(name))
    ones = [n for n, d in degrees.items() if d == 1]
    twos = [n for n, d in degrees.items() if d == 2]
    # Fixed degrees (1, 2, 1), as in the golden (e1, e45, e2), keep the
    # job's cost from depending on the seed.
    a, b, c = rng.choice(ones), rng.choice(twos), rng.choice(ones)
    variables = rng.sample(range(len(VARS)), rng.randint(1, len(VARS)))
    monos = [tuple(rng.randint(1, 2) if i == v else 0
                   for i in range(len(VARS))) for v in sorted(variables)]
    modulus = ",".join(_mono_str(mono) for mono in monos)
    sign = (-1) ** (degrees[a] * degrees[b] + degrees[a] * degrees[c]
                    + degrees[b] * degrees[c])
    first = f"assoc {name} --triple {a},{b},{c} --modulus {modulus}"
    second = f"assoc {name} --triple {c},{b},{a} --modulus {modulus}"

    def parse(o):
        lines = o.out.rstrip("\n").split("\n")
        prefix = f"modulo ({modulus}): "
        if len(lines) != 2 or not lines[1].startswith(prefix):
            return None
        cx = ctx.doc(name).algebra().complex
        return (ctx.m.parser.parse_element(lines[0], cx),
                ctx.m.parser.parse_element(lines[1][len(prefix):], cx))

    def check_one(o, exc):
        # ORACLE: the second line is the first with every monomial in the
        # modulus ideal dropped, and the exit code says whether it is zero.
        if exc is not None:
            return f"raised {exc!r}"
        parsed = parse(o)
        if parsed is None:
            return f"exit {o.code}, output {o.out[:200]!r}"
        full, mod = parsed
        if _drop(full, monos) != _drop(mod, []):
            return f"modulo line {o.out[:200]!r} is not the reduction"
        return _want(o.code == (1 if _drop(mod, []) else 0), f"exit {o.code}")

    def check_first(o, exc):
        problem = check_one(o, exc)
        if problem is None:
            ctx.outputs[first] = parse(o)[0]
        return problem

    def check_second(o, exc):
        # ORACLE: [a,b,c] = -(-1)^(|a||b|+|a||c|+|b||c|) [c,b,a].
        problem = check_one(o, exc)
        if problem is not None:
            return problem
        prev = ctx.outputs.pop(first, None)
        if prev is None:
            return "the first triple of the pair failed"
        return _want((prev + parse(o)[0].scale(sign)).is_zero(),
                     f"outer flip fails for {a},{b},{c}")

    argv = ["assoc", ctx.path(name), "--triple", f"{a},{b},{c}",
            "--modulus", modulus]
    flip = ["assoc", ctx.path(name), "--triple", f"{c},{b},{a}",
            "--modulus", modulus]
    return [_cli_job(ctx, first, argv, check_first),
            _cli_job(ctx, second, flip, check_second)]


def _perturb_job(ctx, name, rng):
    seed = rng.randrange(1000)
    # ORACLE: perturbing by a homotopy keeps the chain-map, degree and
    # Leibniz axioms.
    return _cli_job(ctx, f"perturb {name} --seed {seed}",
                    ["perturb", ctx.path(name), "--seed", str(seed)],
                    expect_prefix(0, f"seed {seed}: chain-map/degree/"
                                     "Leibniz ok;"))


def _cone_job(ctx, name, rng):
    mono = [0] * len(VARS)
    for v in rng.sample(range(len(VARS)), 2):     # degree 2: x*y, z*w, ...
        mono[v] = 1
    expr = _mono_str(mono)

    def check(o, exc):
        # ORACLE (as tests/test_cli.py): the emitted document is an algebra
        # passing every axiom check, on twice the basis, with E adjoined.
        if exc is not None:
            return f"raised {exc!r}"
        if o.code != 0:
            return f"exit {o.code}, stderr {o.err[:200]!r}"
        alg = ctx.m.parser.parse_document(o.out).algebra()
        size = len(ctx.doc(name).algebra().complex.order)
        return _want(alg.check().ok() and "E" in alg.complex.order
                     and len(alg.complex.order) == 2 * size,
                     f"cone on {expr}: {len(alg.complex.order)} elements")
    return _cli_job(ctx, f"cone {name} --expr {expr}",
                    ["cone", ctx.path(name), "--expr", expr], check)


def _taylor_cli_job(ctx, rng, k):
    monos = seeded_ideal(rng, k)
    ideal = ",".join(_mono_str(m) for m in monos)

    def check(o, exc):
        # ORACLE: basis names, degrees and lcm multidegrees of the subsets.
        if exc is not None:
            return f"raised {exc!r}"
        if o.code != 0:
            return f"exit {o.code}, stderr {o.err[:200]!r}"
        doc = ctx.m.parser.parse_document(o.out)
        cx = doc.complexes["T"]
        got = {n: (b.degree, tuple(b.mdeg)) for n, b in cx.basis.items()}
        return _want(got == taylor_basis(monos) and "mu" in doc.mults,
                     f"taylor basis differs for {ideal}")
    return _cli_job(ctx, f"taylor --ideal {ideal}",
                    ["taylor", "--ring", ",".join(VARS), "--ideal", ideal],
                    check)


def _sym_job(ctx, name, truncate, dims):
    argv = ["sym", ctx.path(name), "--truncate", str(truncate), "--json"]
    return _cli_job(ctx, f"sym {name} --truncate {truncate}", argv,
                    expect_json(0, problems=[], dims=dims))


def calculus(ctx, rng):
    p = ctx.path
    split = p("fk_split")
    jobs = []
    for name in ("fk", "fm", "fa", "ex6"):
        jobs += [
            # TEST: every fixture passes check.
            _cli_job(ctx, f"check {name}", ["check", p(name)],
                     expect_text(0, "all checks passed")),
            _cli_job(ctx, f"homology {name}", ["homology", p(name)],
                     expect_text(0, FROZEN[f"homology {name}"])),
            _perturb_job(ctx, name, rng),
            _cone_job(ctx, name, rng),
        ]
    for name in ("fk", "fm", "fa"):
        # TEST for fk (tests/test_cli.py, criterion 2), FROZEN otherwise.
        submodule = {**FROZEN.get(f"submodule {name}", {}),
                     **TESTED.get(f"submodule {name}", {})}
        jobs += [
            _cli_job(ctx, f"alt {name}", ["alt", p(name)],
                     expect_text(0, "alternative on all basis pairs")),
            _cli_job(ctx, f"submodule {name} --json",
                     ["submodule", p(name), "--json"],
                     expect_json(0, **submodule)),
            _cli_job(ctx, f"quotient {name}", ["quotient", p(name)],
                     expect_text(0, TESTED.get(f"quotient {name}")
                                 or FROZEN[f"quotient {name}"])),
        ]
        jobs += _seeded_triple_jobs(ctx, name, rng)
    jobs += [
        _cli_job(ctx, "assoc fk", ["assoc", p("fk")],
                 expect_prefix(1, TESTED["assoc fk prefix"])),
        _cli_job(ctx, "assoc fm", ["assoc", p("fm")],
                 expect_text(1, FROZEN["assoc fm"])),
        _cli_job(ctx, "assoc fa", ["assoc", p("fa")],
                 expect_text(1, FROZEN["assoc fa"])),
    ]
    for name in ("fk", "fa", "ex6"):
        jobs.append(_sym_job(ctx, name, 2, FROZEN[f"sym {name} 2"]))
    jobs.append(_sym_job(ctx, "taylor_x2_xy", 4,
                         FROZEN["sym taylor_x2_xy 4"]))
    jobs += [
        # TEST: every fixture passes check.
        _cli_job(ctx, "check fk_split --mult nu",
                 ["check", split, "--mult", "nu"],
                 expect_text(0, "all checks passed")),
        # FROZEN (the table nu is the Taylor algebra, so associative).
        _cli_job(ctx, "assoc fk_split --mult nu",
                 ["assoc", split, "--mult", "nu"],
                 expect_text(0, "associative on all basis triples")),
        _cli_job(ctx, "alt fk_split --mult nu", ["alt", split, "--mult", "nu"],
                 expect_text(0, "alternative on all basis pairs")),
        _cli_job(ctx, "homology fk_split", ["homology", split],
                 expect_text(0, FROZEN["homology fk_split"])),
        # TEST: mu on fk_split is the fk table.
        _cli_job(ctx, "submodule fk_split --mult mu --json",
                 ["submodule", split, "--mult", "mu", "--json"],
                 expect_json(0, **TESTED["submodule fk"])),
        _cli_job(ctx, "quotient fk_split --mult mu",
                 ["quotient", split, "--mult", "mu"],
                 expect_text(0, TESTED["quotient fk"])),
        # TEST
        _cli_job(ctx, "transport fk_split", ["transport", split],
                 expect_text(0, "transported table matches the stored "
                                "table")),
        _taylor_cli_job(ctx, rng, 3),
        _taylor_cli_job(ctx, rng, 4),
        # TEST: criterion 1 and tests/test_cli.py golden associators.
        _cli_job(ctx, "assoc fk --triple e1,e5,e2",
                 ["assoc", p("fk"), "--triple", "e1,e5,e2"],
                 expect_text(1, TESTED["assoc fk --triple e1,e5,e2"])),
        _cli_job(ctx, "assoc fa --triple e1,e45,e2 --modulus x^2,y,z,w",
                 ["assoc", p("fa"), "--triple", "e1,e45,e2",
                  "--modulus", "x^2,y,z,w"],
                 expect_text(1, TESTED["assoc fa --triple e1,e45,e2 "
                                       "--modulus x^2,y,z,w"])),
        _cli_job(ctx, "assoc ex6 --triple e2,e1,e3",
                 ["assoc", p("ex6"), "--triple", "e2,e1,e3"],
                 expect_text(1, FROZEN["assoc ex6 --triple e2,e1,e3"])),
        _cli_job(ctx, "assoc fk --modulus x/y --triple e1,e5,e2",
                 ["assoc", p("fk"), "--modulus", "x/y", "--triple",
                  "e1,e5,e2"], known_crash),
    ]
    for job in jobs:
        kind = job.name.split()[0]
        if kind in CALCULUS_SLOTS and job.check is not known_crash:
            job.slot, job.label = CALCULUS_SLOTS[kind], f"verdict_s.{kind}"
    return jobs


def known_crash(o, exc):
    """The known failure: a non-monomial modulus raises ValueError where the
    CLI contract asks for exit 2.  Exit 2 is the fixed behaviour."""
    if exc is not None:
        return KNOWN if isinstance(exc, ValueError) else f"raised {exc!r}"
    return _want(o.code == 2, f"exit {o.code}")


BUILDERS = {"certify-closed": certify_closed,
            "certify-growth": certify_growth,
            "calculus": calculus}


def build(workload: str, seed: int, ctx) -> list:
    return BUILDERS[workload](ctx, random.Random(f"{workload}/{seed}"))

