"""Exact matrix ranks over GF(2), GF(3), every larger prime field and the
rationals.

Floats are banned everywhere in this project.  Every routine keeps one
pivot row per leading column and reduces each incoming row against the
pivots until it vanishes or owns a new leading column.  Each field has
one row encoding, which the caller builds; nothing here converts rows.

* GF(2) (`rank_gf2`): a row is a Python integer and the update is xor.
* GF(3) (`rank_gf3`): a row is two bit planes (ones, twos), the columns
  holding 1 and the columns holding 2.  A pivot is stored with lead 1; a
  row adds the pivot, or its negation (the same planes swapped), by a
  bitsliced GF(3) addition of a few word operations.
* The rationals and primes p >= 5 (`matrix_rank`): a row is a dict
  {column: nonzero int}, copied once and then updated in place, deleting
  entries that become zero.  Over GF(p) a pivot is stored with lead 1 and
  the update is row - f*pivot modulo p.  Over the rationals a pivot whose
  lead is +-1 is subtracted as is; any other takes the fraction-free step
  a*row - b*pivot, after which the row is divided by its gcd so that its
  entries stay small.
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
    return {c: x for c, x in row.items() if x}


def rank_gf3(rows: Iterable[tuple[int, int]]) -> int:
    """Rank over GF(3) of a matrix whose rows are bit-plane pairs
    (ones, twos): the columns holding 1 and the columns holding 2, which
    never share a bit."""
    planes: dict[int, tuple[int, int]] = {}
    for ones, twos in rows:
        while ones | twos:
            lead = (ones | twos).bit_length() - 1
            pivot = planes.get(lead)
            if pivot is None:
                planes[lead] = (ones, twos) if ones >> lead & 1 else (twos, ones)
                break
            # add the pivot to a row with lead 2, its negation to one with lead 1
            a, b = pivot if twos >> lead & 1 else pivot[::-1]
            t = (ones | b) ^ (twos | a)
            ones, twos = (twos | b) ^ t, (ones | a) ^ t
    return len(planes)


def matrix_rank(rows: Iterable[dict[int, int]], characteristic: int) -> int:
    """Rank of a matrix of sparse rows {column: int} over the rationals
    (characteristic 0) or GF(p) for a prime p.  The rows are not modified.
    It serves the rationals and p >= 5: GF(2) and GF(3) rows have their
    own encodings, for `rank_gf2` and `rank_gf3`."""
    p = characteristic
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        row = _normalized(row, p)
        while row:
            lead = max(row)
            pivot = pivots.get(lead)
            if pivot is None:
                if p:
                    inv = pow(row[lead], -1, p)
                    for c in row:
                        row[c] = row[c] * inv % p
                pivots[lead] = row
                break
            b = row[lead]
            if p:
                for c, y in pivot.items():
                    v = (row.get(c, 0) - b * y) % p
                    if v:
                        row[c] = v
                    else:
                        del row[c]
                continue
            a = pivot[lead]
            unit = a in (1, -1)
            if unit:
                f = a * b
            else:
                f = b
                for c in row:
                    row[c] *= a
            for c, y in pivot.items():
                v = row.get(c, 0) - f * y
                if v:
                    row[c] = v
                else:
                    del row[c]
            if not unit and row:
                g = gcd(*row.values())
                if g > 1:
                    for c in row:
                        row[c] //= g
    return len(pivots)
