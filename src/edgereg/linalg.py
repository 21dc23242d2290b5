"""Exact matrix ranks: xor on bitmask rows over GF(2), sparse integer rows
over the rationals and every odd prime field.

Floats are banned everywhere in this project.  Both routines keep one
pivot row per leading column and reduce each incoming row against the
pivots until it vanishes or owns a new leading column.  Over GF(2) a row
is a Python integer and the update is xor.  Otherwise a row is a dict
{column: nonzero int} and the update is the integer combination
a*row - b*pivot, which cancels the leading entry; entries are then
reduced modulo p, or, over the rationals, divided by their gcd so that
they stay small.
"""
from __future__ import annotations

from math import gcd
from typing import Iterable


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


def _normalized(row: dict[int, int], p: int) -> dict[int, int]:
    if p:
        return {c: x % p for c, x in row.items() if x % p}
    g = gcd(*row.values())
    return {c: x // g for c, x in row.items() if x}


def matrix_rank(rows: Iterable[dict[int, int]], characteristic: int) -> int:
    """Rank of a matrix of sparse rows {column: int} over the rationals
    (characteristic 0) or GF(p) for an odd prime p."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        row = _normalized(row, characteristic)
        while row:
            lead = max(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            a, b = pivot[lead], row[lead]
            row = {c: a * x for c, x in row.items()}
            for c, y in pivot.items():
                row[c] = row.get(c, 0) - b * y
            row = _normalized(row, characteristic)
    return len(pivots)
