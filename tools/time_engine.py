"""Time the document parser, the Buchberger engine, the associativity
certificate, the symmetric-algebra check and the chain layer in process,
best of three runs per case.

The first parse case runs `parse_document` on the text of each of the 9
bundled fixtures; its golden count is the number of stored products,
chain-map images and differentials over all of them.  One parse case each
runs it on fk, fm, fa, ex6 and fk_split alone, with that fixture's count,
and the tokenize case runs `tokenize` on fk_split, whose golden count is
its number of tokens, the end of text not counted.

The engine cases are `buchberger` on the pair relations of the fixtures fk,
fa, ex55 and fo_full, of the Taylor algebra of (x^2, w^2, zw, xy, yz), and
of the degree-1 presentations of ex55, fk and fa (each table cut down to the
products of two degree-1 basis elements, as in perfbench's certify-growth
workload), and `presentation_check` on fa, which completes fa's pair
relations and compares the linear part of their ideal with the associator
submodule degree by degree (with `buchberger fa`, the work of perfbench's
certify-closed tail job).  The certificate cases run `associativity_certificate` on
fo_full, on the Taylor algebras of (x^2, y^2, w^2, xy, yz, zw) (Taylor-6),
of the same ideal plus xz (Taylor-7), plus z^2 (Taylor-8, 255 generators),
plus yw (Taylor-9, 511 generators) and plus xw (Taylor-10, 1,023
generators), and on the perturbed Taylor tables of
`tools/check_criteria.py`.  These tables are complete, so the certificate
takes its linear route; the perturbed ones are not associative.  The
Taylor-6, -8, -9 and -10 tables and the perturbed ones are built on their
case's first run, outside the timing, and dropped after the case, so that
no other case holds them.
The peak resident set size of the process (`ru_maxrss`) is printed after
the Taylor-9 and the Taylor-10 certificate cases, the largest.  The build
cases time `taylor_algebra` alone on the Taylor-9 and Taylor-10 ideals;
their golden is the generator and stored-pair counts, and their counters
are the process's resident set size (VmRSS, read from /proc on Linux)
with the first run's table held, and what that build added to it.  The
scan cases run `associative_on_basis` on the Taylor-7 table (associative,
so every triple is read) and `associator_submodule` on fm.  The symmetric-algebra cases run
`SymDGAlgebra.check()` on fk truncated at total degree 3, on fm at 2 and on
fk_split's complex T5 at 3.
The chain-layer cases run `MDGAlgebra.check()` on fk_split's table nu and
on fm, `FreeComplex.homology_dims()` on fm, on fk_split and on ex6 (whose
81 multidegrees share 16 divisor sets, the most sharing of the fixtures),
`Submodule.homology_dims()` on fm's associator submodule, and
`quotient_homology_dims` on fm by that submodule (built before the timing
starts).
Two cases run on fm with every differential divided by 2, so that its
constants are `Fraction`s rather than ints: `homology_dims()` and
`SymDGAlgebra.check()` at 2.  Their goldens are fm's.
Each run's basis size (for a certificate, also its witness count; for a
scan, its verdict or generator count; for a symmetric-algebra check, its
monomial and problem counts; for an axiom check, its problem and skipped
counts; for a homology case, its dimensions; for the presentation check,
its (ideal, span) dimensions per degree; for a parse case, its entry
count; for the tokenize case, its token count) is checked against its golden value before its time counts.  Takes no options.  Run from anywhere:

    python3 tools/time_engine.py

Prints one line per case: name, golden counts and the best wall time in
seconds (`time.perf_counter`), then the `GBasis.stats` counters of the
completion (the presentation check's included) or of the certificate's
linear route (none for a scan, for a
symmetric-algebra check or for a chain-layer case).  Exits 0, or 1 when a
golden count differs.
Every case but the two build cases runs through one helper, `timed`: an
untimed setup, then one timed call, whose result gives the golden count
and the counters.
The run takes about 20 s, and the Taylor-10 certificate case sets its peak
resident set size, 248 MB, on a 2-vCPU Linux host with CPython 3.11.
"""

import os
import re
import resource
import sys
import time
from functools import cache, partial
from operator import attrgetter

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

# the Taylor tables shared with check_criteria.py, beside this script
from check_criteria import PERTURBED, TAYLOR5, TAYLOR6, perturbed, taylor
from mdgkit import fixture_path, load_fixture
from mdgkit.groebner import associativity_certificate, buchberger, mult_ideal
from mdgkit.mdg import MDGAlgebra, Multiplication, quotient_homology_dims
from mdgkit.parser import parse_document, tokenize
from mdgkit.symdg import build_sym, presentation_check

RUNS = 3

FIXTURES = ["ex55", "ex6", "fa", "fk", "fk_split", "fm", "fo_full",
            "fo_presentation", "taylor_x2_xy"]


# the fixtures that perfbench's calculus workload parses, with their entry
# counts
PARSED = [("fk", 199), ("fm", 391), ("fa", 161), ("ex6", 21),
          ("fk_split", 760)]

# the counters of a certificate's or a presentation check's basis
BASIS_STATS = attrgetter("basis.stats")


def timed(call, count, setup=tuple, stats=lambda out: {}):
    """One run of a case: `setup()`, untimed, gives the arguments of one
    timed `call`, and the run returns (count(result), seconds,
    stats(result)).  A completion's setup builds a fresh context, so no run
    starts with another's memoised order keys."""
    def run():
        args = setup()
        start = time.perf_counter()
        out = call(*args)
        elapsed = time.perf_counter() - start
        return count(out), elapsed, stats(out)
    return run


# the setups, calls and count readers that the cases share

def texts(names):
    return tuple(fixture_path(name).read_text() for name in names)


def parse_texts(*texts):
    return [parse_document(text) for text in texts]


def entries(docs) -> str:
    """The stored products, chain-map images and differentials of the
    documents."""
    n = sum(len(table.table) for doc in docs for table in doc.mults.values())
    n += sum(len(phi.images) for doc in docs for phi in doc.maps.values())
    n += sum(len(cx.diff) for doc in docs for cx in doc.complexes.values())
    return f"{n} entries"


def certified(report):
    return len(report.basis), len(report.witnesses)


def checked_sym(source, truncation):
    sym = build_sym(source, truncation)
    return sym, sym.check()


def sym_counts(checked) -> str:
    sym, problems = checked
    return f"{len(sym.monomials())} monomials, {len(problems)} problems"


def axiom_counts(report) -> str:
    return (f"{len(report.all_problems())} problems, "
            f"{len(report.skipped_leibniz)} skipped")


def homology(dims) -> str:
    return ", ".join(f"H_{i}={n}" for i, n in dims.items())


def first_run(build, *args):
    """A setup that calls build(*args) on its case's first run, outside the
    timing, and passes the result to every run of the case.  The result is
    dropped with the case."""
    return cache(lambda: (build(*args),))


def rss_mb() -> float:
    """The process's resident set size now, in MB (Linux)."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmRSS line in /proc/self/status")


def taylor_build(ideal):
    """`taylor_algebra` on the ideal; the RSS counters are the first
    run's."""
    first = {}

    def run():
        before = rss_mb()
        start = time.perf_counter()
        alg = taylor(ideal)
        elapsed = time.perf_counter() - start
        after = rss_mb()
        first.setdefault("rss_mb", round(after))
        first.setdefault("rss_added_mb", round(after - before))
        return (f"{len(alg.complex.order) - 1} generators, "
                f"{len(alg.mult.table)} stored pairs", elapsed, first)
    return run


def presentation(name):
    """The fixture's table cut down to the products of two degree-1 basis
    elements; completion derives the rest."""
    alg = load_fixture(name).algebra()
    cx = alg.complex
    partial = Multiplication(cx, "presentation")
    for a, b in alg.mult.stored_pairs():
        if cx.basis[a].degree == cx.basis[b].degree == 1:
            partial.set_product(a, b, alg.mult.product(a, b))
    return MDGAlgebra(cx, partial)


TAYLOR7 = TAYLOR6 + [(1, 0, 1, 0)]
TAYLOR8 = TAYLOR7 + [(0, 0, 2, 0)]
TAYLOR9 = TAYLOR8 + [(0, 1, 0, 1)]
TAYLOR10 = TAYLOR9 + [(1, 0, 0, 1)]


def halved(name):
    """The fixture's document with every differential divided by 2."""
    return parse_document(re.sub(r"^(\s*d \w+ = )(.*);$", r"\1(\2)/2;",
                                 fixture_path(name).read_text(), flags=re.M))


def cases():
    """(name, run, golden size).  A Taylor table of k monomials is
    associative and complete, so its basis is exactly its n(n+1)/2 pair
    relations, n = 2^k - 1, with no witness."""
    fk = load_fixture("fk").algebra()
    fo_full = load_fixture("fo_full").algebra()
    fa = load_fixture("fa").algebra()
    fm = load_fixture("fm").algebra()
    split_nu = load_fixture("fk_split").algebra("nu")
    fm_sub = fm.associator_submodule()
    fm_half = halved("fm").complexes["FM"]
    taylor7 = taylor(TAYLOR7)
    completions = [("fk", fk, 155), ("fa", fa, 122),
                   ("ex55", load_fixture("ex55").algebra(), 231),
                   ("fo_full", fo_full, 630),
                   ("taylor5", taylor(TAYLOR5), 496)]
    completions += [(f"presentation {name}", presentation(name), size)
                    for name, size in [("ex55", 119), ("fk", 92), ("fa", 79)]]
    certificates = [
        ("fo_full", lambda: (fo_full,), (630, 0)),
        ("taylor6", first_run(taylor, TAYLOR6), (2016, 0)),
        ("taylor7", lambda: (taylor7,), (8128, 0)),
        ("taylor8", first_run(taylor, TAYLOR8), (32640, 0)),
        ("taylor9", first_run(taylor, TAYLOR9), (130816, 0)),
        ("taylor10", first_run(taylor, TAYLOR10), (523776, 0)),
    ] + [(f"perturbed {name}", first_run(perturbed, ideal, seed),
          (size, count)) for name, ideal, seed, size, count in PERTURBED]
    sym_checks = [("fk @3", fk, 3, "1340 monomials, 0 problems"),
                  ("fm @2", fm, 2, "392 monomials, 0 problems"),
                  ("fm d/2 @2", fm_half, 2, "392 monomials, 0 problems"),
                  ("fk_split T5 @3", load_fixture("fk_split").complexes["T5"],
                   3, "5472 monomials, 0 problems")]
    homologies = [
        ("homology fm", fm.complex.homology_dims,
         "H_0=13, H_1=0, H_2=0, H_3=0, H_4=0"),
        ("homology fm d/2", fm_half.homology_dims,
         "H_0=13, H_1=0, H_2=0, H_3=0, H_4=0"),
        ("homology fk_split", split_nu.complex.homology_dims,
         "H_0=15, H_1=0, H_2=0, H_3=0, H_4=0, H_5=0"),
        ("homology ex6", load_fixture("ex6").complexes["EX6"].homology_dims,
         "H_0=66, H_1=0, H_2=0, H_3=0, H_4=0"),
        ("submodule homology fm", fm_sub.homology_dims, "H_3=2, H_4=0"),
        ("quotient fm", partial(quotient_homology_dims, fm, fm_sub),
         "H_1=0, H_2=0, H_3=0, H_4=2")]
    parses = [("9 fixtures", FIXTURES, 2294)] + [
        (name, [name], n) for name, n in PARSED]
    return [(f"parse {name}", timed(parse_texts, entries,
                                    partial(texts, names)), f"{n} entries")
            for name, names, n in parses] + [
        ("tokenize fk_split",
         timed(tokenize, lambda toks: f"{len(toks) - 1} tokens",
               partial(texts, ["fk_split"])), "6069 tokens"),
        ("taylor build taylor9", taylor_build(TAYLOR9),
         "511 generators, 130560 stored pairs"),
        ("taylor build taylor10", taylor_build(TAYLOR10),
         "1023 generators, 523264 stored pairs"),
    ] + [(f"buchberger {name}",
          timed(buchberger, len, partial(mult_ideal, alg),
                attrgetter("stats")), size)
         for name, alg, size in completions] + [
        ("presentation_check fa",
         timed(partial(presentation_check, fa), attrgetter("components"),
               stats=BASIS_STATS), {3: (1, 1), 4: (1, 1)}),
    ] + [(f"certificate {name}",
          timed(associativity_certificate, certified, setup, BASIS_STATS),
          size) for name, setup, size in certificates] + [
        ("associative_on_basis taylor7",
         timed(taylor7.associative_on_basis,
               lambda hit: "associative" if hit is None
               else f"witness {hit[:3]}"), "associative"),
        ("associator_submodule fm",
         timed(fm.associator_submodule,
               lambda sub: f"{len(sub.gens)} generators"), "76 generators"),
    ] + [(f"sym check {name}",
          timed(partial(checked_sym, source, k), sym_counts), golden)
         for name, source, k, golden in sym_checks] + [
        ("check fk_split --mult nu", timed(split_nu.check, axiom_counts),
         "0 problems, 0 skipped"),
        ("check fm", timed(fm.check, axiom_counts), "0 problems, 0 skipped"),
    ] + [(name, timed(dims, homology), golden)
         for name, dims, golden in homologies]


def describe(size) -> str:
    if isinstance(size, str):
        return size
    if isinstance(size, tuple):
        return f"basis {size[0]}, {size[1]} witnesses"
    if isinstance(size, dict):
        return "components " + ", ".join(
            f"degree {i} {pair}" for i, pair in size.items())
    return f"basis {size}"


def main() -> int:
    ok = True
    todo = cases()
    while todo:
        # popped, so that the case's run, and a table it built, is dropped
        # after its case
        name, run, golden = todo.pop(0)
        best = None
        for _ in range(RUNS):
            size, elapsed, stats = run()
            if size != golden:
                print(f"{name}: {describe(size)}, expected {describe(golden)}")
                ok = False
                break
            best = elapsed if best is None else min(best, elapsed)
        else:
            counters = "".join(f", {k} {v}" for k, v in stats.items())
            print(f"{name}: {describe(size)}, best of {RUNS} {best:.4f} s"
                  f"{counters}")
        if name in ("certificate taylor9", "certificate taylor10"):
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            print(f"peak RSS after {name}: {peak // 1024} MB")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
