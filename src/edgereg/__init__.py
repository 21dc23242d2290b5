"""Exact computations with edge ideals of small graphs.

Graphs, their combinatorial invariants, monomial-ideal arithmetic
(powers, colons, polarization, symbolic squares), graded Betti numbers
and Castelnuovo-Mumford regularity via simplicial homology, plus a
harness that machine-verifies regularity theorems over every small graph.
"""

__version__ = "0.1.0"
