"""Time the Buchberger engine and the associativity certificate in process,
best of three runs per case.

The engine cases are `buchberger` on the pair relations of the fixtures fk,
ex55 and fo_full and of the Taylor algebra of (x^2, w^2, zw, xy, yz).  The
certificate cases run `associativity_certificate` on fo_full and on the
Taylor algebras of (x^2, y^2, w^2, xy, yz, zw) and of the same ideal plus
xz; these tables are associative and complete, so the certificate takes its
diamond-lemma fast path.  Each run's basis size (and, for a certificate, its
verdict) is checked against its golden value before its time counts.  Takes
no options.  Run from anywhere:

    python3 tools/time_engine.py

Prints one line per case: name, basis size and the best wall time in
seconds (`time.perf_counter`), then the `GBasis.stats` counters of the
completion (none for a certificate that takes the fast path).  Exits 0, or
1 when a basis size or a verdict differs.
The run takes a few minutes.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from mdgkit import load_fixture
from mdgkit.constructions import taylor_algebra
from mdgkit.groebner import associativity_certificate, buchberger, mult_ideal
from mdgkit.ring import Ring

RUNS = 3


# Each run builds a fresh context, so no run starts with another's memoised
# order keys, and returns (basis size, seconds, the basis's stats).

def taylor(ideal):
    ring = Ring(["x", "y", "z", "w"])
    return taylor_algebra(ring, [ring.monomial(m) for m in ideal])


def completion(alg):
    def run():
        ctx, gens = mult_ideal(alg)
        start = time.perf_counter()
        basis = buchberger(ctx, gens)
        return len(basis), time.perf_counter() - start, basis.stats
    return run


def certificate(alg):
    def run():
        start = time.perf_counter()
        report = associativity_certificate(alg)
        elapsed = time.perf_counter() - start
        size = len(report.basis) if report.associative else -1
        return size, elapsed, report.basis.stats
    return run


# exponent vectors over (x, y, z, w)
TAYLOR5 = [(2, 0, 0, 0), (0, 0, 0, 2), (0, 0, 1, 1), (1, 1, 0, 0),
           (0, 1, 1, 0)]
TAYLOR6 = [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 0, 2), (1, 1, 0, 0),
           (0, 1, 1, 0), (0, 0, 1, 1)]
TAYLOR7 = TAYLOR6 + [(1, 0, 1, 0)]


def cases():
    """(name, run, golden basis size).  A Taylor table of k monomials is
    associative and complete, so its basis is exactly its n(n+1)/2 pair
    relations, n = 2^k - 1."""
    fo_full = load_fixture("fo_full").algebra()
    return [
        ("buchberger fk", completion(load_fixture("fk").algebra()), 155),
        ("buchberger ex55", completion(load_fixture("ex55").algebra()), 231),
        ("buchberger fo_full", completion(fo_full), 630),
        ("buchberger taylor5", completion(taylor(TAYLOR5)), 496),
        ("certificate fo_full", certificate(fo_full), 630),
        ("certificate taylor6", certificate(taylor(TAYLOR6)), 2016),
        ("certificate taylor7", certificate(taylor(TAYLOR7)), 8128),
    ]


def main() -> int:
    ok = True
    for name, run, golden in cases():
        best = None
        for _ in range(RUNS):
            size, elapsed, stats = run()
            if size != golden:
                print(f"{name}: basis size {size}, expected {golden}")
                ok = False
                break
            best = elapsed if best is None else min(best, elapsed)
        else:
            counters = "".join(f", {k} {v}" for k, v in stats.items())
            print(f"{name}: basis {size}, best of {RUNS} {best:.2f} s"
                  f"{counters}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
