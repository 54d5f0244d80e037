"""Check the pair criteria of `buchberger` against a criterion-free run, and
the linear route of `associativity_certificate` against `buchberger`.

For the pair relations of the fixture tables ex55, fm, fo_full,
fk_split's nu and fo_presentation and of the Taylor algebra of (x^2, w^2,
zw, xy, yz), complete once with both criteria (the default) and once with
`criteria=False`, which reduces every S-pair.  The two bases must have the
same monic term dicts in the same order.  On the fixture tables the
criterion-free run must also match its frozen fingerprint: the first 16 hex
digits of the sha256 of its basis strings, in order, then its counters, as
`tests/test_groebner.py` computes them for the runs with criteria and the
fast criterion-free runs.  The fast tables fk, fa, ex6 and the degree-1
presentations of fk and fa are checked the same way by the test suite;
these cases take minutes, so they live here.

Then check the linear route of the certificate against `buchberger` on
every complete fixture table (fk, fa, fm, fo_full, fk_split's mu and nu,
taylor_x2_xy) and on the Taylor tables of (x^2, w^2, zw, xy, yz) and of
(x^2, y^2, w^2, xy, yz, zw) perturbed by `mdg.random_homotopy` (the
homotopy of `mdg perturb`) at seeds 1 and 2, which are not associative.
The route reads its basis from the structure constants.  It must be taken,
its basis must have the golden size and witness count, and it must have
the term dicts of `buchberger`'s basis in the same order once the
witnesses, which the completion lists as it derives them, are sorted into
ascending lead order.  Takes no options.
Run from anywhere:

    python3 tools/check_criteria.py

Prints one line per case: for the criteria, name, basis size, the counters
of the run with criteria, the seconds of each run and, on a fixture table,
whether the criterion-free run matches its fingerprint; for the linear
route, name, basis size, witness count, the seconds of each route and
whether the completion derived the witnesses in ascending lead order.
Exits 0, or 1 when a pair of bases differs, a fingerprint differs or a
size or count is off.
"""

import hashlib
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from mdgkit import load_fixture
from mdgkit.constructions import taylor_algebra
from mdgkit.groebner import associativity_certificate, buchberger, mult_ideal
from mdgkit.mdg import MDGAlgebra, perturb_multiplication, random_homotopy
from mdgkit.ring import Ring

# exponent vectors over (x, y, z, w)
TAYLOR5 = [(2, 0, 0, 0), (0, 0, 0, 2), (0, 0, 1, 1), (1, 1, 0, 0),
           (0, 1, 1, 0)]
TAYLOR6 = [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 0, 2), (1, 1, 0, 0),
           (0, 1, 1, 0), (0, 0, 1, 1)]

# (name, ideal, seed, golden basis size, golden witness count)
PERTURBED = [
    ("taylor5 seed 1", TAYLOR5, 1, 382, 4),
    ("taylor5 seed 2", TAYLOR5, 2, 331, 6),
    ("taylor6 seed 1", TAYLOR6, 1, 1659, 6),
    ("taylor6 seed 2", TAYLOR6, 2, 1239, 14),
]


def taylor(ideal):
    ring = Ring(["x", "y", "z", "w"])
    return taylor_algebra(ring, [ring.monomial(m) for m in ideal])


def perturbed(ideal, seed):
    """The Taylor table of the ideal perturbed by `mdg.random_homotopy`
    at the seed, as `mdg perturb` does: complete, multigraded and, at the
    seeds above, not associative."""
    alg = taylor(ideal)
    mult = perturb_multiplication(alg, random_homotopy(alg, seed))
    return MDGAlgebra(alg.complex, mult)


# (fixture, table, golden basis size, golden witness count)
COMPLETE_TABLES = [
    ("fk", "mu", 155, 2),
    ("fa", "mu", 122, 2),
    ("fm", "mu", 327, 2),
    ("fo_full", "mu", 630, 0),
    ("fk_split", "mu", 155, 2),
    ("fk_split", "nu", 496, 0),
    ("taylor_x2_xy", "mu", 6, 0),
]

# (fixture, table, the criterion-free run's fingerprint)
FIXTURE_TABLES = [
    ("ex55", "mu", "2a32a5ec82e2811b"),
    ("fm", "mu", "70c1ea1d7b0c4bc8"),
    ("fo_full", "mu", "926ad342fbd4c0c5"),
    ("fk_split", "nu", "c1bd061101b517d0"),
    ("fo_presentation", "mu", "c885eb6985a4911d"),
]
COUNTERS = ("pairs_queued", "monomial_skips", "product_skips", "chain_skips",
            "zero_spolys", "zero_normal_forms", "reduction_steps", "derived")


def fingerprint(basis) -> str:
    lines = [str(e) for e in basis.elements]
    lines.append(" ".join(f"{k}={basis.stats[k]}" for k in COUNTERS))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def timed(alg, **kwargs):
    ctx, gens = mult_ideal(alg)
    start = time.perf_counter()
    basis = buchberger(ctx, gens, **kwargs)
    return basis, time.perf_counter() - start


def terms(polys):
    return [p.terms for p in polys]


def check_criteria(name, alg, frozen=None) -> bool:
    fast, t_fast = timed(alg)
    slow, t_slow = timed(alg, criteria=False)
    same = terms(fast.elements) == terms(slow.elements)
    counters = ", ".join(f"{k} {v}" for k, v in fast.stats.items())
    matches = frozen is None or fingerprint(slow) == frozen
    verdict = "same basis" if same else "BASES DIFFER"
    if frozen is not None:
        verdict += ", fingerprint " + ("matches" if matches else "DIFFERS")
    print(f"{name}: basis {len(fast)}, {counters}; "
          f"{t_fast:.2f} s with criteria, {t_slow:.2f} s without: {verdict}",
          flush=True)
    return same and matches


def check_linear_route(name, alg, size, count) -> bool:
    start = time.perf_counter()
    report = associativity_certificate(alg)
    t_linear = time.perf_counter() - start
    completed, t_completion = timed(alg)
    ctx = completed.ctx
    witnesses = completed.linear_elements()
    ascending = sorted(witnesses, key=lambda w: ctx.order_key(w.lead_mono()))
    pairs = [e for e in completed.elements
             if ctx.mono_total(e.lead_mono()) > 1]
    same = (report.route == "linear"
            and terms(report.basis.elements) == terms(pairs + ascending))
    golden = (len(report.basis), len(report.witnesses)) == (size, count)
    order = ("ascending" if terms(witnesses) == terms(ascending)
             else "not ascending")
    print(f"{name}: basis {len(report.basis)}, {len(report.witnesses)} "
          f"witnesses; {t_linear:.2f} s linear, {t_completion:.2f} s "
          f"buchberger, derived in {order} lead order: "
          f"{'same basis' if same else 'BASES DIFFER'}"
          f"{'' if golden else f', expected {size} and {count}'}",
          flush=True)
    return same and golden


def main() -> int:
    ok = True
    for fixture, mult, frozen in FIXTURE_TABLES:
        ok = check_criteria(f"{fixture} {mult}",
                            load_fixture(fixture).algebra(mult), frozen) and ok
    ok = check_criteria("taylor5", taylor(TAYLOR5)) and ok
    for fixture, mult, size, count in COMPLETE_TABLES:
        ok = check_linear_route(f"{fixture} {mult}",
                                load_fixture(fixture).algebra(mult), size,
                                count) and ok
    for name, ideal, seed, size, count in PERTURBED:
        ok = check_linear_route(name, perturbed(ideal, seed), size,
                                count) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
