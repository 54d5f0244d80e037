"""Check the pair criteria of `buchberger` against a criterion-free run.

For the pair relations of the fixtures ex55, fm and fo_full and of the
Taylor algebra of (x^2, w^2, zw, xy, yz), complete once with both criteria
(the default) and once with `criteria=False`, which reduces every S-pair.
The two bases must have the same monic term dicts in the same order.  The
fast tables fk, fa, ex6 and the degree-1 presentations of fk and fa are
checked the same way by the test suite; these cases take minutes, so they
live here.  Takes no options.  Run from anywhere:

    python3 tools/check_criteria.py

Prints one line per case: name, basis size, the counters of the run with
criteria, and the seconds of each run.  Exits 0, or 1 when a pair of bases
differs.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from mdgkit import load_fixture
from mdgkit.constructions import taylor_algebra
from mdgkit.groebner import buchberger, mult_ideal
from mdgkit.ring import Ring

# exponent vectors over (x, y, z, w)
TAYLOR5 = [(2, 0, 0, 0), (0, 0, 0, 2), (0, 0, 1, 1), (1, 1, 0, 0),
           (0, 1, 1, 0)]


def taylor(ideal):
    ring = Ring(["x", "y", "z", "w"])
    return taylor_algebra(ring, [ring.monomial(m) for m in ideal])


def timed(alg, **kwargs):
    ctx, gens = mult_ideal(alg)
    start = time.perf_counter()
    basis = buchberger(ctx, gens, **kwargs)
    return basis, time.perf_counter() - start


def main() -> int:
    ok = True
    cases = [(name, load_fixture(name).algebra())
             for name in ("ex55", "fm", "fo_full")]
    cases.append(("taylor5", taylor(TAYLOR5)))
    for name, alg in cases:
        fast, t_fast = timed(alg)
        slow, t_slow = timed(alg, criteria=False)
        same = ([p.terms for p in fast.elements]
                == [p.terms for p in slow.elements])
        ok = ok and same
        counters = ", ".join(f"{k} {v}" for k, v in fast.stats.items())
        print(f"{name}: basis {len(fast)}, {counters}; "
              f"{t_fast:.2f} s with criteria, {t_slow:.2f} s without: "
              f"{'same basis' if same else 'BASES DIFFER'}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
