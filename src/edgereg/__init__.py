"""Exact computations with edge ideals of small graphs.

Graphs, their combinatorial invariants, monomial-ideal arithmetic
(powers, colons, polarization, symbolic squares), graded Betti numbers
and Castelnuovo-Mumford regularity via simplicial homology, plus a
harness that machine-verifies regularity theorems over every small graph.
"""
from .evenconn import EvenConnectionCertificate, colon_graph, even_connected_pairs
from .graphs import (Graph, complement, delete_closed_neighborhood, emit_graph6,
                     enumerate_graphs, from_edge_list, induced_subgraph,
                     is_isomorphic, parse_graph6)
from .homology import (GF2, QQ, BettiTable, FieldSpec, graded_betti, hochster_oracle,
                       regularity, regularity_of_power)
from .invariants import (InvariantRecord, induced_matching_number, invariant_record,
                         is_chordal, is_co_chordal, is_gap_free, local_regularity,
                         matching_number)
from .monomials import (EdgeMultiset, Monomial, MonomialIdeal, colon_by_monomial,
                        edge_ideal, minimal_vertex_covers, polarize, power,
                        symbolic_square)
from .suites import SuiteReport, SuiteSpec, run

__version__ = "0.1.0"
