"""Even-connection: quadratic generators of colon ideals of edge-ideal powers.

Fix a graph G and a multiset of edges e_1 ... e_s.  Vertices u, v (possibly
equal) are even-connected with respect to the product e_1 ... e_s when some
alternating walk p_0 ... p_{2k+1} (k >= 1) joins them: every consecutive
pair is an edge of G, the edges at odd positions are drawn from the
multiset without exceeding multiplicities, and the walk starts and ends
with a free edge.  The colon ideal (I(G)^{s+1} : e_1...e_s) is generated in
degree two, by the edges of G together with the even-connected pairs; a
self-connected vertex u contributes the square u^2, which polarizes to a
whisker edge u-u'.

Both searches run over states (current vertex, multiset usage vector,
parity).  Condition (3) bounds usage componentwise, so the state space has
at most n * prod(multiplicity_i + 1) * 2 elements and an exhaustive search
is complete.  Any walk reaching an accepting state with usage total k has
exactly 2k+1 edges, because free and multiset edges alternate; "longest
possible" therefore means "maximal usage total".

`even_connection_lengths` decides: for each start vertex it walks layers
by usage total, one packed usage integer and one vertex bitmask per state
class, and returns each pair with its maximal k.  `colon_graph`, the
longest-walk endpoints and both colon suites use it.  The breadth-first
search behind `even_connected_pairs` only certifies: each pair carries an
explicit walk and edge assignment of maximal length, with ties broken by
lexicographic path order for determinism.  It serves the `colon-graph`
command and is the independent cross-check of the layer search.

The module also lists, for one colon graph, every removed set W and
endpoint u of a longest walk avoiding W at which the
reduction-to-isolated-vertices lemma fails.  Everything here returns
plain values; the sweeps that compare the
colon graph against monomial arithmetic and record violations live in
`suites`.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .graphs import Graph, closed_neighborhood, from_edge_list
from .monomials import EdgeMultiset, polar_name


@dataclass(frozen=True)
class EvenConnectionCertificate:
    """A witnessing walk p_0 ... p_{2k+1} plus the multiset edge assigned to
    each odd position (edge index 2l+1 joins path[2l+1] and path[2l+2])."""

    path: tuple[int, ...]
    assignments: tuple[tuple[int, tuple[int, int]], ...]

    @property
    def k(self) -> int:
        return (len(self.path) - 2) // 2

    def endpoints(self) -> tuple[int, int]:
        return self.path[0], self.path[-1]

    def check(self, g: Graph, m: EdgeMultiset) -> bool:
        """All four defining conditions, verified from scratch."""
        path = self.path
        if len(path) < 4 or len(path) % 2:
            return False
        if any(not g.has_edge(path[r], path[r + 1]) for r in range(len(path) - 1)):
            return False
        assigned = dict(self.assignments)
        k = self.k
        if sorted(assigned) != [2 * l + 1 for l in range(k)]:
            return False
        usage: dict[tuple[int, int], int] = {}
        for pos, e in assigned.items():
            if {path[pos], path[pos + 1]} != set(e):
                return False
            usage[e] = usage.get(e, 0) + 1
        counts = m.counts()
        return all(counts.get(e, 0) >= c for e, c in usage.items())

    def reversed(self) -> "EvenConnectionCertificate":
        path = self.path[::-1]
        last = len(self.path) - 2
        assigns = tuple(sorted((last - pos, e) for pos, e in self.assignments))
        return EvenConnectionCertificate(path, assigns)


@dataclass(frozen=True)
class ColonGraphResult:
    """The graph presenting (I^{s+1} : e_1...e_s): the original edges plus
    one edge per even-connected pair, with whisker vertices for
    self-connections.  `pairs` holds every pair (u, v, k), u <= v, with
    the maximal k of its walks; `new_pairs` those that are not already
    edges of G."""

    graph: Graph
    pairs: tuple[tuple[int, int, int], ...]
    origin: tuple[Graph, EdgeMultiset]

    @property
    def new_pairs(self) -> tuple[tuple[int, int, int], ...]:
        g = self.origin[0]
        return tuple((u, v, k) for u, v, k in self.pairs
                     if u == v or not g.has_edge(u, v))


def _check_multiset(g: Graph, m: EdgeMultiset) -> None:
    m.validate_in(g)
    if m.size < 1:
        raise ValueError("the edge multiset must contain at least one edge")


def even_connection_lengths(g: Graph, m: EdgeMultiset) -> dict[tuple[int, int], int]:
    """Every even-connected pair (u, v), u <= v and u = v allowed, mapped to
    the largest k of a walk p_0 ... p_{2k+1} joining them, in sorted order.

    For each start vertex the search walks layers by usage total k.  A
    layer maps a packed usage integer (one counter per distinct multiset
    edge) to the bitmask of vertices reached after 2k steps.  The free
    step from that mask is one lookup of the union of their
    neighbourhoods, whose every vertex ends a walk of length 2k + 1; a
    multiset edge (a, b) then carries a to b and b to a while its counter
    is below its multiplicity."""
    _check_multiset(g, m)
    counts = m.counts()
    width = max(4, max(counts.values()).bit_length())
    moves = []  # (a, b, counter field, multiplicity, one use), each shifted into place
    for i, ((a, b), mult) in enumerate(sorted(counts.items())):
        shift = width * i
        moves.append((a, b, ((1 << width) - 1) << shift, mult << shift, 1 << shift))
    adj = g.adj
    unions = {0: 0}  # vertex bitmask -> union of their neighbourhoods
    found: dict[tuple[int, int], int] = {}
    for start in range(g.n):
        layer, k = {0: 1 << start}, 0
        while layer:
            ends_any = 0
            nxt: dict[int, int] = {}
            for usage, reached in layer.items():
                ends = unions.get(reached)
                if ends is None:
                    ends, rest = 0, reached
                    while rest:
                        low = rest & -rest
                        ends |= adj[low.bit_length() - 1]
                        rest ^= low
                    unions[reached] = ends
                ends_any |= ends
                for a, b, field, mult, one in moves:
                    if usage & field < mult:
                        step = (ends >> a & 1) << b | (ends >> b & 1) << a
                        if step:
                            nxt[usage + one] = nxt.get(usage + one, 0) | step
            if k:
                rest = ends_any >> start << start  # endpoints v >= start
                while rest:
                    low = rest & -rest
                    found[(start, low.bit_length() - 1)] = k
                    rest ^= low
            layer, k = nxt, k + 1
    return dict(sorted(found.items()))


def _reachable_states(g: Graph, m: EdgeMultiset, start: int):
    """BFS over (vertex, usage, parity); parity is the number of edges
    walked so far mod 2, so parity 0 moves along any edge of G and parity 1
    must consume a multiset edge at the current vertex."""
    distinct = sorted(m.counts())
    mult = [m.counts()[e] for e in distinct]
    zero = (0,) * len(distinct)
    first = (start, zero, 0)
    pred: dict[tuple, tuple | None] = {first: None}
    queue = deque([first])
    while queue:
        state = queue.popleft()
        v, usage, parity = state
        if parity == 0:
            for u in g.neighbors(v):
                nxt = (u, usage, 1)
                if nxt not in pred:
                    pred[nxt] = (state, None)
                    queue.append(nxt)
        else:
            for i, e in enumerate(distinct):
                if usage[i] < mult[i] and v in e:
                    u = e[0] if v == e[1] else e[1]
                    bumped = usage[:i] + (usage[i] + 1,) + usage[i + 1:]
                    nxt = (u, bumped, 0)
                    if nxt not in pred:
                        pred[nxt] = (state, e)
                        queue.append(nxt)
    return pred


def _reconstruct(pred, state) -> tuple[tuple[int, ...], tuple[tuple[int, tuple[int, int]], ...]]:
    chain = []
    cur = state
    while cur is not None:
        entry = pred[cur]
        chain.append((cur[0], None if entry is None else entry[1]))
        cur = None if entry is None else entry[0]
    chain.reverse()
    path = tuple(v for v, _ in chain)
    assigns = tuple(sorted((idx - 1, e) for idx, (_, e) in enumerate(chain) if e is not None))
    return path, assigns


def even_connected_pairs(g: Graph, m: EdgeMultiset
                         ) -> list[tuple[int, int, EvenConnectionCertificate]]:
    """All pairs (u, v), u <= v and u = v allowed, that are even-connected
    with respect to m, each with a certificate of maximal length."""
    _check_multiset(g, m)
    found: dict[tuple[int, int], EvenConnectionCertificate] = {}
    for start in range(g.n):
        pred = _reachable_states(g, m, start)
        accepts: dict[int, list] = {}
        for state in pred:
            v, usage, parity = state
            if parity == 1 and sum(usage) >= 1 and v >= start:
                accepts.setdefault(v, []).append(state)
        for v, states in accepts.items():
            kmax = max(sum(st[1]) for st in states)
            best = min(_reconstruct(pred, st) for st in states if sum(st[1]) == kmax)
            found[(start, v)] = EvenConnectionCertificate(*best)
    return [(u, v, found[(u, v)]) for u, v in sorted(found)]


def colon_graph(g: Graph, m: EdgeMultiset) -> ColonGraphResult:
    """The polarized graph of (I^{s+1} : e_1...e_s): E(G) plus the
    even-connected pairs, self-connections becoming whisker edges u-u'."""
    pairs = tuple((u, v, k) for (u, v), k in even_connection_lengths(g, m).items())
    selfs = [u for u, v, _ in pairs if u == v]
    labels = list(g.labels) + [polar_name(g.labels[u], 2) for u in selfs]
    edges = g.edges()
    edges += [(u, v) for u, v, _ in pairs if u != v and not g.has_edge(u, v)]
    edges += [(u, g.n + i) for i, u in enumerate(selfs)]
    graph = from_edge_list(g.n + len(selfs), edges, tuple(labels))
    return ColonGraphResult(graph, pairs, (g, m))


def longest_walk_endpoints(colon: ColonGraphResult, w) -> set[int]:
    """Endpoints of the longest even-connected walks whose endpoints avoid
    W; empty when no even-connected pair avoids W."""
    eligible = [(a, b, k) for a, b, k in colon.pairs if a not in w and b not in w]
    if not eligible:
        return set()
    kmax = max(k for _, _, k in eligible)
    return {x for a, b, k in eligible if k == kmax for x in (a, b)}


def isolated_reduction_failures(colon: ColonGraphResult) -> list[tuple[frozenset[int], int]]:
    """With G' the colon graph of (I^{s+1} : m), every (W, u) at which some
    edge of G' - W - N_{G'}[u] is not an edge of G - N_G[u] under the
    copy-1 embedding (the remaining new vertices must all be isolated).
    W runs over all vertex sets of G (in bitmask order) and u over the
    endpoints of the longest even-connected walks avoiding W (ascending);
    a W that no even-connected pair avoids contributes nothing.  The edge
    list of G' and each N[u] are computed once per colon graph, the edges
    avoiding W once per W."""
    g, gp = colon.origin[0], colon.graph
    edges = gp.edges()
    hoods = [(closed_neighborhood(gp, u), closed_neighborhood(g, u)) for u in range(g.n)]
    out = []
    for bits in range(1 << g.n):
        w = frozenset(v for v in range(g.n) if bits >> v & 1)
        kept = [(a, b) for a, b in edges if a not in w and b not in w]
        for u in sorted(longest_walk_endpoints(colon, w)):
            removed, blocked = hoods[u]
            # blocked <= removed unless G' lost an edge of G
            if any(a >= g.n or b >= g.n or not g.has_edge(a, b) or a in blocked or b in blocked
                   for a, b in kept if a not in removed and b not in removed):
                out.append((w, u))
    return out
