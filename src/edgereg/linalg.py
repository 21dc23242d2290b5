"""Exact matrix ranks over GF(2), GF(p) and the rationals.

Floats are banned everywhere in this project: the GF(2) path packs rows
into Python integers and eliminates with xor, the odd-prime path reduces
modulo p, and the characteristic-zero path runs fraction-free (Bareiss)
elimination on arbitrary-precision integers.
"""
from __future__ import annotations


def rank_gf2(rows: list[int]) -> int:
    """Rank of a matrix whose rows are bitmask integers."""
    pivots: dict[int, int] = {}
    rank = 0
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            if lead in pivots:
                row ^= pivots[lead]
            else:
                pivots[lead] = row
                rank += 1
                break
    return rank


def rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Rank over GF(p) by straightforward elimination."""
    mat = [[x % p for x in row] for row in rows if any(x % p for x in row)]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], -1, p)
        mat[rank] = [(x * inv) % p for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                mat[r] = [(a - f * b) % p for a, b in zip(mat[r], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


def rank_bareiss(rows: list[list[int]]) -> int:
    """Rank over the rationals via fraction-free integer elimination.

    The two-term Bareiss update keeps every intermediate entry an exact
    integer (it is a minor of the input), so no precision is ever lost.
    """
    mat = [list(row) for row in rows if any(row)]
    if not mat:
        return 0
    nrows, ncols = len(mat), len(mat[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pv = mat[rank][col]
        for r in range(rank + 1, nrows):
            fr = mat[r][col]
            row = mat[r]
            top = mat[rank]
            for c in range(col, ncols):
                row[c] = (pv * row[c] - fr * top[c]) // prev
        prev = pv
        rank += 1
        if rank == nrows:
            break
    return rank


def matrix_rank(rows: list[list[int]], characteristic: int) -> int:
    """Dispatch on the coefficient field characteristic (0 or a prime); rows
    already packed into bitmasks go to `rank_gf2` directly."""
    if not rows or not rows[0]:
        return 0
    if characteristic == 0:
        return rank_bareiss(rows)
    return rank_mod_p(rows, characteristic)
