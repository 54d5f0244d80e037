"""The eliminator: `linalg.rref` works over Z.  It is held here against the
Gauss-Jordan loop over Q that it replaced, kept in this file as the
reference, and `linalg.rank` against sympy."""

from fractions import Fraction

import sympy
from hypothesis import given, settings, strategies as st

from mdgkit import linalg


def gauss_jordan(rows):
    """Reduced row echelon form over Q on Fractions, one division by the
    pivot per row and one Fraction operation per entry cleared."""
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [v / pv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


# nonzero entries are Fractions with denominators and signs; zeros are the
# int 0 as well, as in the rows `groebner._echelon` builds
ENTRY = st.one_of(st.just(0), st.just(Fraction(0)),
                  st.fractions(min_value=-9, max_value=9, max_denominator=12))


@st.composite
def matrices(draw, min_rows=0, min_cols=0):
    """Rows with denominators and negative entries, plus zero rows and
    duplicate and scaled rows; no rows and zero columns are allowed."""
    ncols = draw(st.integers(min_cols, 6))
    rows = draw(st.lists(st.lists(ENTRY, min_size=ncols, max_size=ncols),
                         min_size=min_rows, max_size=6))
    for _ in range(draw(st.integers(0, 2))):
        if not rows:
            break
        row = draw(st.sampled_from(rows))
        scale = draw(st.sampled_from([1, -1, Fraction(2, 3), Fraction(-5, 7)]))
        rows.insert(draw(st.integers(0, len(rows))), [scale * v for v in row])
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * ncols)
    return rows


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_rref_equals_gauss_jordan_over_q(rows):
    reduced, pivots = linalg.rref(rows)
    assert (reduced, pivots) == gauss_jordan(rows)
    assert all(type(v) is Fraction for row in reduced for v in row)
    assert linalg.rank(rows) == len(pivots)


@settings(max_examples=100, deadline=None)
@given(matrices(), st.data())
def test_span_and_nullspace_agree_with_the_reference(rows, data):
    ncols = len(rows[0]) if rows else 0
    vec = data.draw(st.lists(ENTRY, min_size=ncols, max_size=ncols))
    expected = len(gauss_jordan(rows + [vec])[1]) == len(gauss_jordan(rows)[1])
    assert linalg.in_span(rows, vec) == (expected or not any(vec))
    for v in linalg.nullspace(rows, ncols):
        assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in rows)
    assert len(linalg.nullspace(rows, ncols)) == ncols - linalg.rank(rows)


@settings(max_examples=100, deadline=None)
@given(matrices(min_rows=1, min_cols=1))
def test_rank_matches_sympy_with_denominators(rows):
    exact = sympy.Matrix([[sympy.Rational(Fraction(v).numerator,
                                          Fraction(v).denominator)
                           for v in row] for row in rows])
    assert linalg.rank(rows) == exact.rank()


def test_no_rows_and_zero_columns():
    assert linalg.rref([]) == ([], [])
    assert linalg.rank([]) == 0
    assert linalg.rref([[], []]) == ([], [])
    assert linalg.rank([[], [], []]) == 0
    assert linalg.rref([[0, Fraction(0)], [0, 0]]) == ([], [])
    assert linalg.solve([], [], 3) == [0, 0, 0]
    assert linalg.solve([[0, 0]], [1], 2) is None


def test_a_worked_example_with_denominators():
    rows = [[Fraction(2, 3), Fraction(-4, 9), 0],
            [Fraction(1, 6), 0, Fraction(5, 2)]]
    reduced, pivots = linalg.rref(rows)
    assert pivots == [0, 1]
    assert reduced == [[1, 0, Fraction(15)], [0, 1, Fraction(45, 2)]]
    assert linalg.solve(rows, [1, -1], 3) == [-6, Fraction(-45, 4), 0]


@settings(max_examples=150, deadline=None)
@given(matrices(min_rows=1, min_cols=1), st.data())
def test_in_span_finds_combinations_of_the_rows(rows, data):
    """A combination of the rows, with int and Fraction coefficients, is in
    the span; moved off it by a unit vector, it is in the span exactly when
    the reference says so."""
    ncols = len(rows[0])
    coeffs = data.draw(st.lists(st.one_of(st.integers(-3, 3), ENTRY),
                                min_size=len(rows), max_size=len(rows)))
    vec = [sum(c * row[j] for c, row in zip(coeffs, rows))
           for j in range(ncols)]
    assert linalg.in_span(rows, vec)
    vec[data.draw(st.integers(0, ncols - 1))] += 1
    expected = len(gauss_jordan(rows + [vec])[1]) == len(gauss_jordan(rows)[1])
    assert linalg.in_span(rows, vec) == expected


def test_in_span_eliminates_the_rows_once(monkeypatch):
    calls = []
    echelon = linalg._echelon
    monkeypatch.setattr(linalg, "_echelon",
                        lambda rows: calls.append(len(rows)) or echelon(rows))
    monkeypatch.setattr(linalg, "rank", None)
    rows = [[1, 2, 0], [0, Fraction(1, 2), 3]]
    assert linalg.in_span(rows, [2, 5, 6])
    assert not linalg.in_span(rows, [0, 0, 1])
    assert calls == [2, 2]
