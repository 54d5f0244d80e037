"""The chain layer over Q: `FreeComplex.d_rows`, `Submodule.span_rows` and
the Leibniz check of `MDGAlgebra.check` read rational constants.  Each is
held here against the `Element` route it replaced, kept in this file as the
reference."""

from fractions import Fraction

import pytest

from mdgkit import load_fixture
from mdgkit.complexes import UNIT, ComplexError, Element
from mdgkit.constructions import mapping_cone_extension, taylor_algebra
from mdgkit.mdg import (AxiomReport, MDGAlgebra, MDGError,
                        MissingProductError, Multiplication, Submodule,
                        perturb_multiplication, random_homotopy)
from mdgkit.parser import parse_document
from mdgkit.ring import Ring, laurent_term, mono_div, mono_divides, mono_mul
from test_cli import WRONG_DEGREE

FIXTURES = ["ex55", "ex6", "fa", "fk", "fk_split", "fm", "fo_full",
            "fo_presentation", "taylor_x2_xy"]

COMPLEXES = [(name, cname) for name in FIXTURES
             for cname in load_fixture(name).complexes]

ALGEBRAS = {name: load_fixture(name).algebra() for name in ("fk", "fm", "fa")}


def element_d_rows(cx, rows, degree, mdeg):
    """d on coordinate rows through Elements: row -> Element -> d -> row."""
    piece = cx.piece_basis(degree, mdeg)
    target = cx.piece_basis(degree - 1, mdeg)
    return [cx.element_vector(cx.d(cx.vector_element(r, degree, mdeg, piece)),
                              degree - 1, mdeg, piece=target)
            for r in rows]


def element_span_rows(sub, degree, mdeg):
    """Each generator shifted as an Element, then read as a row."""
    cx = sub.complex
    piece = cx.piece_basis(degree, mdeg)
    return [cx.element_vector(v.scale(cx.ring.monomial(mono_div(mdeg, m))),
                              degree, mdeg, piece=piece)
            for _, v, d, m in sub.gens
            if d == degree and mono_divides(m, mdeg)]


def element_leibniz(alg):
    """Leibniz problems and skipped pairs of every product of the right
    degree, computed on Elements."""
    cx, mult = alg.complex, alg.mult
    problems, skipped = [], []
    for (l, r), value in mult.table.items():
        if mult.degree_problem(l, r, value):
            continue
        try:
            lhs = cx.d(value)
            rhs = alg.mul(cx.d(cx.elem(l)), cx.elem(r))
            term = alg.mul(cx.elem(l), cx.d(cx.elem(r)))
            rhs = rhs + (term if cx.basis[l].degree % 2 == 0 else -term)
            if not (lhs - rhs).is_zero():
                problems.append(f"Leibniz fails for {l}*{r}: "
                                f"d(product) - expected = {lhs - rhs}")
        except MissingProductError as e:
            skipped.append((f"{l}*{r}", str(e)))
    return problems, skipped


@pytest.mark.parametrize("name, cname", COMPLEXES)
def test_d_rows_match_the_element_round_trip(name, cname):
    cx = load_fixture(name).complexes[cname]
    cx.require_complex()
    consts = cx.diff_constants()
    for degree in range(1, cx.max_degree() + 1):
        for md in cx.mdeg_support():
            n = len(cx.piece_basis(degree, md))
            units = [[Fraction(int(i == j)) for j in range(n)]
                     for i in range(n)]
            assert (cx.d_rows(consts, units, degree, md)
                    == element_d_rows(cx, units, degree, md)), (degree, md)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_span_rows_match_the_shifted_elements(name):
    sub = ALGEBRAS[name].associator_submodule()
    cx = sub.complex
    for degree in range(cx.max_degree() + 1):
        for md in cx.mdeg_support():
            assert (sub.span_rows(degree, md)
                    == element_span_rows(sub, degree, md)), (degree, md)


def test_a_shift_with_a_denominator_is_refused_as_before():
    fk = ALGEBRAS["fk"]
    cx = fk.complex
    m = cx.basis["e1"].mdeg
    lower = tuple(e - 1 if e else 0 for e in m)
    laurent = Element(cx, {"e1": laurent_term(fk.ring, 1,
                                              mono_div(lower, m))})
    sub = Submodule(fk, [("v", laurent)])
    with pytest.raises(ComplexError) as ours:
        sub.span_rows(1, lower)
    with pytest.raises(ComplexError) as theirs:
        element_span_rows(sub, 1, lower)
    assert str(ours.value) == str(theirs.value)
    assert "on e1 is not a polynomial" in str(ours.value)


def broken_tables(alg):
    """Multihomogeneous breaks of single entries: one rational constant
    doubled, one term added at the product's multidegree (a polynomial
    coefficient and, where one exists, a Laurent one), one product
    removed; and a nonzero value stored for an odd square, which the
    product reads as zero but Leibniz reads as stored."""
    cx, ring = alg.complex, alg.ring
    a, k = cx.names_in_degree(1)[0], cx.names_in_degree(2)[0]
    top = mono_mul(cx.basis[a].mdeg, cx.basis[a].mdeg)
    yield (f"{a}*{a} stored", a, a,
           Element(cx, {k: laurent_term(ring, 3,
                                        mono_div(top, cx.basis[k].mdeg))}))
    pairs = sorted(alg.mult.table)[::11]
    for l, r in pairs:
        value = alg.mult.table[l, r]
        top = mono_mul(cx.basis[l].mdeg, cx.basis[r].mdeg)
        if not value.is_zero():
            k, c = next(iter(value.coeffs.items()))
            yield f"{l}*{r} doubled", l, r, value + Element(cx, {k: c})
        names = cx.names_in_degree(cx.basis[l].degree + cx.basis[r].degree)
        for laurent in (False, True):
            fits = [k for k in names
                    if mono_divides(cx.basis[k].mdeg, top) != laurent]
            if fits:
                k = fits[-1]
                term = laurent_term(ring, 3, mono_div(top, cx.basis[k].mdeg))
                yield (f"{l}*{r} plus {k}{' (Laurent)' if laurent else ''}",
                       l, r, value + Element(cx, {k: term}))
        yield f"{l}*{r} removed", l, r, None


def break_table(alg, l, r, value):
    mult = alg.mult.copy()
    if value is None:
        del mult.table[l, r]
    else:
        mult.table[l, r] = value
    return MDGAlgebra(alg.complex, mult)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_leibniz_over_q_matches_the_element_route(name):
    failing = skipping = 0
    for label, l, r, value in broken_tables(ALGEBRAS[name]):
        broken = break_table(ALGEBRAS[name], l, r, value)
        report = broken.check()
        # no complex, degree or multidegree problem: the route over Q ran
        assert report.all_problems() == report.leibniz_problems, label
        assert ((report.leibniz_problems, report.skipped_leibniz)
                == element_leibniz(broken)), label
        failing += bool(report.leibniz_problems)
        skipping += bool(report.skipped_leibniz)
    assert failing and skipping


def test_a_leibniz_failure_reads_as_before():
    # e1*e2 = 2*e12 breaks Leibniz on the pair and on every product whose
    # Leibniz terms read it
    fk = ALGEBRAS["fk"]
    value = fk.mult.table["e1", "e2"]
    broken = break_table(fk, "e1", "e2", value + value)
    assert broken.check().summary().splitlines() == [
        f"FAIL Leibniz fails for {pair}: d(product) - expected = {defect}"
        for pair, defect in [("e1*e2", "-w^2*e1 + x^2*e2"),
                             ("e1*e12", "x^2*e12"), ("e1*e23", "-z*e12"),
                             ("e1*e24", "-x*y*e12"), ("e2*e12", "w^2*e12"),
                             ("e2*e13", "z*w*e12"), ("e2*e14", "y*e12")]]
    assert broken.check().leibniz_problems == element_leibniz(broken)[0]


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_check_reads_each_stored_product_once(monkeypatch, name):
    alg = ALGEBRAS[name]
    expected = alg.mult.structure_constants()
    calls = {"degree_problem": 0, "mdeg_problem": 0}

    def counting(method):
        original = getattr(Multiplication, method)

        def counted(self, left, right, value):
            calls[method] += 1
            return original(self, left, right, value)
        return counted

    for method in calls:
        monkeypatch.setattr(Multiplication, method, counting(method))
    report = alg.check()
    assert report.ok()
    # a zero product has no grading problem
    nonzero = sum(not value.is_zero() for value in alg.mult.table.values())
    assert calls == dict.fromkeys(calls, nonzero)
    assert alg.mult._graded_rows() == (expected, {})


def reference_constants(mult):
    """`structure_constants` in two passes: every stored product checked
    first, then every row built."""
    for (left, right), value in mult.table.items():
        problem = mult.degree_problem(left, right, value)
        if problem:
            raise MDGError(f"table is not homogeneous: product {problem}")
        problem = mult.mdeg_problem(left, right, value)
        if problem:
            raise MDGError(f"table is not multihomogeneous: product "
                           f"{problem}")
    cx = mult.complex
    out = {}
    for (left, right), value in mult.table.items():
        consts = {d: coeff.lead_coeff() for d, coeff in value.coeffs.items()}
        out[(left, right)] = consts
        if left != right:
            if consts and (cx.basis[left].degree
                           * cx.basis[right].degree) % 2:
                consts = {d: -c for d, c in consts.items()}
            out[(right, left)] = consts
    for name in cx.order:
        if name != UNIT and cx.basis[name].degree % 2 == 1:
            out[(name, name)] = {}
    return out


# the Taylor-5 and -6 ideals of tools/check_criteria.py, over (x, y, z, w)
R4 = Ring(["x", "y", "z", "w"])
TAYLOR = {5: [(2, 0, 0, 0), (0, 0, 0, 2), (0, 0, 1, 1), (1, 1, 0, 0),
              (0, 1, 1, 0)],
          6: [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 0, 2), (1, 1, 0, 0),
              (0, 1, 1, 0), (0, 0, 1, 1)]}
CONSTANT_TABLES = ([f"{name}:{mname}" for name in FIXTURES
                    for mname in load_fixture(name).mults]
                   + ["taylor5", "taylor6"]
                   + [f"taylor{k}-seed{seed}" for k in (5, 6)
                      for seed in (1, 2)])


def constant_table(label):
    """A fixture's table, a Taylor table, or a Taylor table perturbed by
    `mdg perturb`'s homotopy at a seed, as tools/check_criteria.py builds
    them."""
    if ":" in label:
        name, mname = label.split(":")
        return load_fixture(name).mults[mname]
    k, _, seed = label[len("taylor"):].partition("-seed")
    alg = taylor_algebra(R4, [R4.monomial(m) for m in TAYLOR[int(k)]])
    if not seed:
        return alg.mult
    return perturb_multiplication(alg, random_homotopy(alg, int(seed)))


@pytest.mark.parametrize("label", CONSTANT_TABLES)
def test_one_pass_constants_are_the_checked_then_built_ones(label):
    mult = constant_table(label)
    expected = list(reference_constants(mult).items())
    consts = mult.structure_constants()
    assert list(consts.items()) == expected
    rows, problems = mult._graded_rows()
    assert list(rows.items()) == expected and problems == {}
    # each (a, b) row sits under the table's own key tuple
    stored = {key: key for key in consts}
    assert all(stored[key] is key for key in mult.table)


def _raised(read):
    with pytest.raises(MDGError) as err:
        read()
    return str(err.value)


def test_a_table_of_the_wrong_degree_raises_as_before():
    mult = parse_document(WRONG_DEGREE).mults["mu"]
    message = _raised(mult.structure_constants)
    assert message == _raised(lambda: reference_constants(mult))
    assert message == ("table is not homogeneous: product a*b lands in "
                       "degrees [1], expected 2")


def test_the_first_broken_product_raises_as_before():
    fk = ALGEBRAS["fk"]
    cx, ring = fk.complex, fk.ring
    nonzero = [key for key, value in fk.mult.table.items()
               if not value.is_zero()]
    first, last = nonzero[0], nonzero[-1]

    def mixed(key):
        # two terms: not multihomogeneous
        d = next(iter(fk.mult.table[key].coeffs))
        return cx.element({d: ring.var("x") + ring.var("y")})

    def off_degree(key):
        return cx.elem(key[0])

    for early, late in ((mixed, off_degree), (off_degree, mixed)):
        mult = fk.mult.copy()
        mult.table[first] = early(first)
        mult.table[last] = late(last)
        message = _raised(mult.structure_constants)
        assert message == _raised(lambda: reference_constants(mult))
        assert f"product {first[0]}*{first[1]}" in message
        assert ("not multihomogeneous" in message) == (early is mixed)


def reference_table_check(alg):
    """`table_check` in two loops: the grading of every stored product,
    then Leibniz on Elements for every product of the right degree."""
    mult = alg.mult
    report = AxiomReport()
    report.complex_problems = alg.complex.check()
    pairs = []
    for (l, r), value in mult.table.items():
        problem = mult.degree_problem(l, r, value)
        if problem:
            report.degree_problems.append(problem)
            continue
        problem = mult.mdeg_problem(l, r, value)
        if problem:
            report.mdeg_problems.append(problem)
        pairs.append((l, r))
    for l, r in pairs:
        try:
            v = alg._leibniz_defect(l, r)
        except MissingProductError as e:
            report.skipped_leibniz.append((f"{l}*{r}", str(e)))
            continue
        if not v.is_zero():
            report.leibniz_problems.append(
                f"Leibniz fails for {l}*{r}: d(product) - expected = {v}")
    return report


def test_one_grading_pass_reports_as_the_two_loops():
    # on fk: an mdeg problem, then a degree problem, then a doubled product
    # that fails Leibniz, in table order
    fk = ALGEBRAS["fk"]
    cx, ring = fk.complex, fk.ring
    nonzero = [key for key, value in fk.mult.table.items()
               if not value.is_zero()]
    first, second, third = nonzero[0], nonzero[len(nonzero) // 2], nonzero[-1]
    mult = fk.mult.copy()
    d = next(iter(mult.table[first].coeffs))
    mult.table[first] = cx.element({d: ring.var("x") + ring.var("y")})
    mult.table[second] = cx.elem(second[0])
    mult.table[third] = mult.table[third] + mult.table[third]
    broken = MDGAlgebra(cx, mult)
    report, expected = broken.check(), reference_table_check(broken)
    assert report.degree_problems and report.mdeg_problems
    assert report.leibniz_problems
    for field in ("complex_problems", "degree_problems", "mdeg_problems",
                  "leibniz_problems", "skipped_leibniz"):
        assert getattr(report, field) == getattr(expected, field), field
    assert _raised(mult.structure_constants) == (
        "table is not multihomogeneous: product " + report.mdeg_problems[0])
    assert report.mdeg_problems[0].startswith(f"{first[0]}*{first[1]}")


def brute_pairs(mult):
    """Every pair of non-unit basis names, the first at or before the
    second in basis order, but the odd squares."""
    cx = mult.complex
    names = [n for n in cx.order if n != UNIT]
    pos = {n: i for i, n in enumerate(names)}
    return [(a, b) for a in names for b in names
            if pos[a] < pos[b] or (a == b and cx.basis[a].degree % 2 == 0)]


PAIR_TABLES = ([f"{name}:{mname}" for name in FIXTURES
                for mname in load_fixture(name).mults]
               + ["taylor4", "cone"])


@pytest.mark.parametrize("label", PAIR_TABLES)
def test_pairs_are_the_storable_pairs_in_basis_order(label):
    if label == "taylor4":
        alg = taylor_algebra(R4, [R4.monomial(m) for m in TAYLOR[5][:4]])
        mult = alg.mult
    elif label == "cone":
        fk = ALGEBRAS["fk"]
        mult = mapping_cone_extension(fk, fk.ring.var("x")).mult
    else:
        mult = constant_table(label)
    pairs = list(mult.pairs())
    assert pairs == brute_pairs(mult)
    cx = mult.complex
    stored = {(a, b) for a, b in mult.table
              if a != b or cx.basis[a].degree % 2 == 0}
    assert stored <= set(pairs)
    if label in ("taylor4", "cone"):
        assert stored == set(pairs)
