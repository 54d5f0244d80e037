"""Time the Buchberger engine in process, best of three runs per case.

The cases are `buchberger` on the pair relations of the fixtures fk, ex55
and fo_full, and the associativity certificate of the Taylor algebra of
(x^2, w^2, zw, xy, yz).  Each run's basis size is checked against its golden
value before its time counts.  Takes no options.  Run from anywhere:

    python3 tools/time_engine.py

Prints one line per case: name, basis size and the best wall time in
seconds (`time.perf_counter`).  Exits 0, or 1 when a basis size differs.
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
# order keys, and returns (basis size, seconds).

def completion(name):
    alg = load_fixture(name).algebra()

    def run():
        ctx, gens = mult_ideal(alg)
        start = time.perf_counter()
        size = len(buchberger(ctx, gens))
        return size, time.perf_counter() - start
    return run


def taylor5():
    ring = Ring(["x", "y", "z", "w"])
    x, y, z, w = (ring.var(v) for v in "xyzw")
    alg = taylor_algebra(ring, [x ** 2, w ** 2, z * w, x * y, y * z])

    def run():
        start = time.perf_counter()
        report = associativity_certificate(alg)
        elapsed = time.perf_counter() - start
        return (len(report.basis) if report.associative else -1), elapsed
    return run


def cases():
    """(name, run, golden basis size).  The Taylor-5 table is associative and
    complete, so its completed basis is exactly its 496 pair relations."""
    return [
        ("buchberger fk", completion("fk"), 155),
        ("buchberger ex55", completion("ex55"), 231),
        ("buchberger fo_full", completion("fo_full"), 630),
        ("certificate taylor5", taylor5(), 496),
    ]


def main() -> int:
    ok = True
    for name, run, golden in cases():
        best = None
        for _ in range(RUNS):
            size, elapsed = run()
            if size != golden:
                print(f"{name}: basis size {size}, expected {golden}")
                ok = False
                break
            best = elapsed if best is None else min(best, elapsed)
        else:
            print(f"{name}: basis {size}, best of {RUNS} {best:.2f} s")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
