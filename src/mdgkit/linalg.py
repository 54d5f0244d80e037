"""Exact Gaussian elimination over Q.

Matrices are lists of row vectors (lists) of Fractions or ints.
"""

from __future__ import annotations

from fractions import Fraction


def rref(rows):
    """Reduced row echelon form.  Returns (new_rows, pivot_columns)."""
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


def rank(rows) -> int:
    return len(rref(rows)[0])


def in_span(rows, vec) -> bool:
    """Is `vec` in the row span of `rows`?"""
    if not any(vec):
        return True
    if not rows:
        return False
    base = rank(rows)
    return rank(list(rows) + [list(vec)]) == base


def solve(rows, rhs):
    """One solution u of M u = rhs (free coordinates 0), or None if
    inconsistent.  `rows` are the rows of M."""
    if not rows:
        return []
    n = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    if n in pivots:
        return None
    u = [Fraction(0)] * n
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
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in zip(red, pivots):
            v[pc] = -r[fc]
        basis.append(v)
    return basis
