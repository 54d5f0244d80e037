"""Exact Gaussian elimination over Q, carried out over Z.

Matrices are lists of row vectors (lists) of rationals, each an int or a
`Fraction` (the rule of `ring`).  Each row is scaled to a primitive integer
vector, so the elimination never forms a `Fraction`: a row is cleared below
and above a pivot by integer cross-multiplication, pv * row - row[c] *
pivot_row, and divided by the gcd of its entries (fraction-free
elimination; Bareiss, Math. Comp. 22, 1968).  Every step multiplies a row by
a nonzero rational, so the row spaces are the ones Gauss-Jordan over Q would
pass through, and the reduced row echelon form, which is unique, comes out
the same once each pivot row is divided by its pivot.  `rank` and `in_span`
never divide; `rref` returns `Fraction` entries, and `solve` and
`nullspace` fill the coordinates it leaves open with the ints 0 and 1.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _integral(row):
    """The row as a primitive integer vector on the same line, or None for
    a zero row."""
    den = lcm(*(v.denominator for v in row))
    out = [v.numerator * (den // v.denominator) for v in row]
    g = gcd(*out)
    if not g:
        return None
    return out if g == 1 else [v // g for v in out]


def _clear(row, top, c):
    """The primitive integer vector on the line of pv * row - row[c] * top,
    pv = top[c] != 0, with both factors divided by gcd(pv, row[c]): row with
    column c cleared against the pivot row top."""
    f, pv = row[c], top[c]
    g = gcd(f, pv)
    a, b = pv // g, f // g
    new = [a * x - b * y for x, y in zip(row, top)]
    g = gcd(*new)
    return new if g < 2 else [v // g for v in new]


def _echelon(rows):
    """(integer rows, pivot columns): the rows of the reduced row echelon
    form of `rows`, each scaled by a nonzero integer."""
    rows = [r for r in map(_integral, rows) if r is not None]
    pivots = []
    if not rows:
        return rows, pivots
    r = 0
    for c in range(len(rows[0])):
        for i in range(r, len(rows)):
            if rows[i][c]:
                break
        else:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        top = rows[r]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                rows[i] = _clear(row, top, c)
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def rref(rows):
    """Reduced row echelon form.  Returns (new_rows, pivot_columns)."""
    red, pivots = _echelon(rows)
    return ([[Fraction(v, row[c]) for v in row]
             for row, c in zip(red, pivots)], pivots)


def rank(rows) -> int:
    return len(_echelon(rows)[1])


def in_span(rows, vec) -> bool:
    """Is `vec` in the row span of `rows`?  `rows` is eliminated once, and
    `vec` is reduced against its echelon rows by the same integer
    cross-multiplication: each reduced row is zero at the other rows'
    pivots, so `vec` is in the span exactly when it ends at zero."""
    if not any(vec):
        return True
    if not rows:
        return False
    v = _integral(vec)
    for row, c in zip(*_echelon(rows)):
        if v[c]:
            v = _clear(v, row, c)
    return not any(v)


def solve(rows, rhs, ncols):
    """One solution u of M u = rhs (free coordinates 0), or None if
    inconsistent.  `rows` are the rows of M, which has `ncols` columns."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    if ncols in pivots:
        return None
    u = [0] * ncols
    for r, c in zip(red, pivots):
        u[c] = r[-1]
    return u


def nullspace(rows, ncols):
    """Basis of {v : M v = 0} where M has the given rows (v indexed by columns)."""
    red, pivots = rref(rows)
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for r, pc in zip(red, pivots):
            v[pc] = -r[fc]
        basis.append(v)
    return basis
