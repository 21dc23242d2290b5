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

A multiset is the plain sorted tuple of its edges (u, v), u < v, one
entry per copy, as `itertools.combinations_with_replacement` yields it
from `Graph.edges()`.  `check_multiset` is the one check of that form
and of membership in G: both searches call it, and so does the CLI
before it prints.

Both searches run over states (current vertex, multiset usage vector,
parity).  Condition (3) bounds usage componentwise, so the state space has
at most n * prod(multiplicity_i + 1) * 2 elements and an exhaustive search
is complete.  Any walk reaching an accepting state with usage total k has
exactly 2k+1 edges, because free and multiset edges alternate; "longest
possible" therefore means "maximal usage total".

`even_connection_lengths` decides: for each start vertex it walks layers
by usage total, one packed usage integer and one vertex bitmask per state
class, and returns each pair with its maximal k.  This dict {(u, v): k}
is the one value of the colon graph: the even-connection suite compares
it with the monomial colon, the isolated-reduction scan reads it, and
`colon_graph` builds the (graph, variable names) pair from it where one
is shown.
The breadth-first search behind `even_connected_pairs` only certifies:
each pair comes as (u, v, path, assignments), an explicit walk of maximal
length and the multiset edge at each odd position, with ties broken by
lexicographic path order for determinism.  It serves the `colon-graph`
command and is the independent cross-check of the layer search.

The module also lists, for one pairs dict, every removed set W and
endpoint u of a longest walk avoiding W at which the
reduction-to-isolated-vertices lemma fails; that scan runs on vertex
bitmasks.  Everything here returns plain values; the sweeps that compare
the pairs against monomial arithmetic and record violations live in
`suites`.
"""
from __future__ import annotations

from collections import Counter, deque

from .graphs import Graph, GraphError, from_edge_list
from .monomials import polar_name, variables


def check_multiset(g: Graph, m: tuple[tuple[int, int], ...]) -> None:
    """Raise ValueError unless m is a sorted tuple of edges (u, v), u < v,
    of g, with at least one edge."""
    if any(u > v for u, v in m) or list(m) != sorted(m):
        raise ValueError("multiset edges must be pairs u < v in sorted order")
    for u, v in m:
        if not (0 <= u < g.n and 0 <= v < g.n and g.has_edge(u, v)):
            raise GraphError(f"multiset edge {(u, v)} not in the graph")
    if not m:
        raise ValueError("the edge multiset must contain at least one edge")


def even_connection_lengths(g: Graph, m: tuple[tuple[int, int], ...]
                            ) -> dict[tuple[int, int], int]:
    """Every even-connected pair (u, v), u <= v and u = v allowed, mapped to
    the largest k of a walk p_0 ... p_{2k+1} joining them, in sorted order.

    For each start vertex the search walks layers by usage total k.  A
    layer maps a packed usage integer (one counter per distinct multiset
    edge) to the bitmask of vertices reached after 2k steps.  The free
    step from that mask is one lookup of the union of their
    neighbourhoods, whose every vertex ends a walk of length 2k + 1; a
    multiset edge (a, b) then carries a to b and b to a while its counter
    is below its multiplicity."""
    check_multiset(g, m)
    counts = Counter(m)
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


def _reachable_states(g: Graph, m: tuple[tuple[int, int], ...], start: int):
    """BFS over (vertex, usage, parity); parity is the number of edges
    walked so far mod 2, so parity 0 moves along any edge of G and parity 1
    must consume a multiset edge at the current vertex."""
    counts = Counter(m)
    distinct = sorted(counts)
    mult = [counts[e] for e in distinct]
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


def even_connected_pairs(g: Graph, m: tuple[tuple[int, int], ...]) -> list[tuple]:
    """Every pair (u, v), u <= v and u = v allowed, that is even-connected
    with respect to m, as (u, v, path, assignments): a witnessing walk
    p_0 ... p_{2k+1} of maximal k, and the multiset edge assigned to each
    odd position (edge 2l+1 joins path[2l+1] and path[2l+2])."""
    check_multiset(g, m)
    found: dict[tuple[int, int], tuple] = {}
    for start in range(g.n):
        pred = _reachable_states(g, m, start)
        accepts: dict[int, list] = {}
        for state in pred:
            v, usage, parity = state
            if parity == 1 and sum(usage) >= 1 and v >= start:
                accepts.setdefault(v, []).append(state)
        for v, states in accepts.items():
            kmax = max(sum(st[1]) for st in states)
            found[(start, v)] = min(_reconstruct(pred, st) for st in states
                                    if sum(st[1]) == kmax)
    return [(u, v, *found[(u, v)]) for u, v in sorted(found)]


def colon_graph(g: Graph, pairs: dict[tuple[int, int], int]) -> tuple[Graph, tuple[str, ...]]:
    """The polarized graph of (I^{s+1} : e_1...e_s), given its even-connected
    `pairs`, and its variable names: E(G) plus one edge per pair, a self
    pair u becoming a whisker edge to a new vertex xu.2."""
    selfs = [u for u, v in pairs if u == v]
    names = variables(g.n) + tuple(polar_name(variables(g.n)[u], 2) for u in selfs)
    edges = g.edges() + [(u, v) for u, v in pairs if u != v and not g.has_edge(u, v)]
    edges += [(u, g.n + i) for i, u in enumerate(selfs)]
    return from_edge_list(len(names), edges), names


def isolated_reduction_failures(g: Graph, pairs: dict[tuple[int, int], int]
                                ) -> list[tuple[frozenset[int], int]]:
    """With G' the colon graph of G and its even-connected `pairs`, every
    (W, u) at which an edge of G' - W - N_{G'}[u] is not in G - N_G[u]: W
    over the vertex sets of G (bitmask order), u over the endpoints of the
    longest pairs avoiding W (ascending).

    G' contains G, so only foreign edges can remain; as vertex bitmasks, a
    pair u != v off E(G) is u-v, and a self pair is the whisker u-u', which
    acts as u alone (u' lies in no W and in no N_{G'}[x] but N_{G'}[u]).
    Each u's foreign edges avoiding N_{G'}[u] are listed once; per W, one
    pass over the pairs, longest first, gives the endpoints."""
    foreign = [1 << a | 1 << b for a, b in pairs if not g.has_edge(a, b)]  # G has no loops
    hood = list(g.adj)  # N_{G'}(u) within V(G): neighbours in G and pair partners
    for a, b in pairs:
        hood[a] |= 1 << b
        hood[b] |= 1 << a
    bad = [[e for e in foreign if not e & (hood[u] | 1 << u)] for u in range(g.n)]
    longest = sorted(((1 << a | 1 << b, k) for (a, b), k in pairs.items()), key=lambda p: -p[1])
    out = []
    for w in range(1 << g.n):
        kmax = ends = 0
        for pair, k in longest:
            if k < kmax:
                break
            if not pair & w:
                kmax, ends = k, ends | pair
        while ends:
            low = ends & -ends
            u = low.bit_length() - 1
            if any(not e & w for e in bad[u]):
                out.append((frozenset(v for v in range(g.n) if w >> v & 1), u))
            ends ^= low
    return out
