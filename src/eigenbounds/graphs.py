"""Distance graphs, regularity diagnostics, and the exact k-independence oracle.

The graph is dense (vertex count <= 2^14 guard): adjacency is a numpy uint8
matrix plus per-vertex Python-int bitmasks for the branch-and-bound solver.
Vertex order is the metric's canonical enumeration, so vertex numbering is
reproducible across runs.  The space builds the adjacency itself by index
arithmetic (`MetricSpace.adjacency`); the k-th power graph takes k - 1
passes that OR packed neighbour rows together, and the vertex classes by
diagonals of A^0..A^k take k sparse products and no dense power.
All-pairs distances (scipy's unweighted shortest paths) are computed only
where distances themselves are needed: the geodesic check and distance
regularity.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy.sparse import csr_matrix, identity
from scipy.sparse.csgraph import shortest_path

from .errors import AmbientTooLarge, BudgetExceeded, Disconnected, InternalError, TooLarge
from .metrics import MetricSpace, enumerate_ambient

MAX_DENSE_VERTICES = 2**14
MAX_NODES = 4_000_000  # default alpha-oracle budget, in branch-and-bound nodes
UNREACHABLE = 2**30  # sentinel exceeding any metric value
GATHER_BYTES = 2**24  # bytes per block: power_graph's gather, Graph's strips, spectra's counts


@dataclass
class Graph:
    """A dense simple graph.  In a distance graph, vertex i is the space's
    i-th element in canonical order (`enumerate_ambient`)."""

    adjacency: np.ndarray  # symmetric 0/1 uint8, zero diagonal

    def __post_init__(self):
        a = self.adjacency
        if a.shape[0] != a.shape[1] or np.any(np.diagonal(a)):
            raise ValueError("adjacency must be square with zero diagonal")
        t = max(1, GATHER_BYTES // max(len(a), 1))  # rows per upper-triangle strip
        if not all(np.array_equal(a[lo:lo + t, lo:], a[lo:, lo:lo + t].T)
                   for lo in range(0, len(a), t)):
            raise ValueError("adjacency must be symmetric")

    @property
    def n_vertices(self) -> int:
        return self.adjacency.shape[0]

    @property
    def degree_list(self) -> np.ndarray:
        return self.adjacency.sum(axis=1, dtype=np.int64)

    def is_regular(self) -> bool:
        degs = self.degree_list
        return bool(degs.size == 0 or np.all(degs == degs[0]))

    def adjacency_bitmasks(self) -> list[int]:
        return _row_bitmasks(self.adjacency)

    def edge_list(self) -> list[tuple[int, int]]:
        ii, jj = np.nonzero(np.triu(self.adjacency, 1))
        return list(zip(ii.tolist(), jj.tolist()))


@dataclass
class DistanceRegularityReport:
    is_distance_regular: bool
    diameter: int
    intersection_array: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None
    witness: Optional[tuple] = None  # ((x, y), (x', y'), i, kind) with unequal counts


def _row_bitmasks(matrix: np.ndarray) -> list[int]:
    """Row i of a 0/1 matrix as the int with bit j set where matrix[i, j] is 1."""
    packed = np.packbits(matrix, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def build_distance_graph(space: MetricSpace) -> Graph:
    """Graph on the ambient set with edges at metric distance exactly 1."""
    if space.ambient_size > MAX_DENSE_VERTICES:
        raise AmbientTooLarge(
            f"{space.ambient_size} vertices exceeds dense guard {MAX_DENSE_VERTICES}")
    return Graph(space.adjacency())


def all_pairs_graph_distance(g: Graph) -> np.ndarray:
    """BFS distances from every vertex; UNREACHABLE marks disconnected pairs."""
    n = g.n_vertices
    if n == 0:
        return np.zeros((0, 0), dtype=np.int64)
    dist = shortest_path(csr_matrix(g.adjacency), method="D", unweighted=True)
    out = np.full((n, n), UNREACHABLE, dtype=np.int64)
    finite = np.isfinite(dist)
    out[finite] = dist[finite].astype(np.int64)
    return out


def verify_geodesic_equals_metric(space: MetricSpace, g: Graph) -> bool:
    """Condition: geodesic distance in the graph equals the metric distance."""
    dists = all_pairs_graph_distance(g)
    labels = enumerate_ambient(space)
    n = len(labels)
    for i in range(n):
        xi = labels[i]
        for j in range(i + 1, n):
            if dists[i, j] != space.distance(xi, labels[j]):
                return False
    return True


def power_graph(g: Graph, k: int) -> Graph:
    """Same vertices, edges between vertices at geodesic distance <= k.

    Each row is a packed bitset (`np.packbits`, little bit order).  Row x of
    reach_j is the OR of rows y of reach_(j-1) over x and its neighbours,
    starting from reach_1 = A, so it marks the vertices within j steps of x:
    k - 1 passes, O(k V^2 delta / 8) byte operations.  The neighbour table
    is padded with the row's own vertex, so every row has the same width,
    and each pass gathers rows in blocks of at most GATHER_BYTES (at least
    one row).  The diagonal is cleared at the end.  G^1 is G: k = 1 returns
    `g` itself.
    """
    if k < 1:
        raise ValueError("k >= 1 required")
    if k == 1:
        return g
    a = g.adjacency
    n = len(a)
    reach = np.packbits(a, axis=1, bitorder="little")
    if n:
        deg = g.degree_list
        width = int(deg.max()) + 1
        nbr = np.repeat(np.arange(n), width).reshape(n, width)
        cols = np.flatnonzero(a.view(bool))
        cols %= n
        nbr[np.arange(width) < deg[:, None]] = cols
        block = max(1, GATHER_BYTES // (width * reach.shape[1]))
        for _ in range(k - 1):
            nxt = np.empty_like(reach)
            for lo in range(0, n, block):
                np.bitwise_or.reduce(reach[nbr[lo:lo + block]], axis=1,
                                     out=nxt[lo:lo + block])
            reach = nxt
    adj = np.unpackbits(reach, axis=1, count=n, bitorder="little")
    np.fill_diagonal(adj, 0)
    return Graph(adj)


def diagonal_classes(adjacency: np.ndarray, k: int) -> list[tuple[int, ...]]:
    """The distinct vectors ((A^0)_vv, ..., (A^k)_vv) over the vertices v,
    sorted, as tuples of Python ints: k sparse (CSR x CSR) int64 products,
    keeping only each diagonal.  A's CSR is built, as `power_graph` builds
    its neighbour table, from the flat nonzero positions and the degrees.
    A walk count (A^i)_uv is at most delta^(i-1), so TooLarge is raised
    unless delta^(k-1) < 2^63."""
    nonzero = np.asarray(adjacency, dtype=np.uint8).view(bool)
    n = len(nonzero)
    cols = np.flatnonzero(nonzero)
    deg = np.count_nonzero(nonzero, axis=1)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])
    a = csr_matrix((np.ones(len(cols), dtype=np.int64), cols % n, indptr), shape=(n, n))
    delta = int(deg.max(initial=0))
    if delta ** max(k - 1, 0) >= 2**63:
        raise TooLarge(f"walk counts up to {delta}^{k - 1} overflow int64")
    power = identity(n, dtype=np.int64, format="csr")
    diags = [power.diagonal()]
    for _ in range(k):
        power = a @ power
        diags.append(power.diagonal())
    return sorted(set(map(tuple, np.column_stack(diags).tolist())))


def is_k_partially_walk_regular(g: Graph, k: int) -> bool:
    """True iff diag(A^i) is constant for every i <= k."""
    return len(diagonal_classes(g.adjacency, k)) <= 1


def triangle_delta(g: Graph) -> int:
    """Max diagonal entry of A^3 (twice the max per-vertex triangle count)."""
    return max((u[3] for u in diagonal_classes(g.adjacency, 3)), default=0)


def is_distance_regular(g: Graph) -> DistanceRegularityReport:
    """Check pair-independence of the counts c_i, a_i, b_i at every distance."""
    dist = all_pairs_graph_distance(g)
    if (dist >= UNREACHABLE).any():
        raise Disconnected("distance-regularity is defined for connected graphs")
    diam = int(dist.max(initial=0))
    degs = g.degree_list
    if not g.is_regular():
        lo, hi = int(np.argmin(degs)), int(np.argmax(degs))
        return DistanceRegularityReport(False, diam, witness=((lo, lo), (hi, hi), 0, "b"))

    a = g.adjacency.astype(np.float32)
    bs, cs = [int(degs[0])], [0]  # b_0 = delta; c_1 appended below
    for i in range(1, diam + 1):
        pairs = np.argwhere(dist == i)
        # counts[x, y] = #neighbors of x at the given distance from y
        for kind, target in (("c", i - 1), ("b", i + 1)):
            mask = (dist == target).astype(np.float32)
            counts = a @ mask
            vals = counts[pairs[:, 0], pairs[:, 1]].astype(np.int64)
            if (vals != vals[0]).any():
                other = int(np.argmax(vals != vals[0]))
                witness = (tuple(pairs[0]), tuple(pairs[other]), i, kind)
                return DistanceRegularityReport(False, diam, witness=witness)
            if kind == "c":
                cs.append(int(vals[0]))
            elif i < diam:
                bs.append(int(vals[0]))
    return DistanceRegularityReport(True, diam, intersection_array=(tuple(bs), tuple(cs[1:])))


# ----------------------------------------------------------------------
# Exact maximum independent set
# ----------------------------------------------------------------------

@dataclass
class IndependentSetResult:
    alpha: int
    certificate: tuple[int, ...]  # vertex indices in canonical order
    exact: bool
    nodes: int = 0  # branch-and-bound nodes expanded
    certified: bool = False  # the search stopped because alpha reached upper_bound


class _BoundReached(Exception):
    """The incumbent reached the caller's upper bound, so it is maximum."""


def _greedy_clique_cover(cand: int, adj: list[int], floor: int) -> list[tuple[int, int]]:
    """Greedy (first-fit) clique cover of the candidate set, listing only
    the classes above `floor`.

    Returns (vertex, cover_index) sorted by cover index: every vertex before
    position i lies in one of the first cover_index(v_i) cliques, so the
    independence number of {v_1..v_i} is at most cover_index(v_i).  That is
    the branch-and-bound pruning invariant.

    Classes are built one at a time on bitsets (BBMC style): the lowest
    remaining vertex starts a class, which then keeps the lowest vertex
    adjacent to every member so far.  That is first-fit in ascending vertex
    order, one class at a time.  Classes 1..floor are built the same way
    but not listed (MCQ/BBMC's k_min): the search passes best - size, and
    a vertex whose cover index is at most that bound cannot lead to a
    larger set, so it is never branched on.
    """
    order: list[tuple[int, int]] = []
    rest = cand
    color = 0
    while rest:
        color += 1
        q = rest
        while q:
            low = q & -q
            v = low.bit_length() - 1
            if color > floor:
                order.append((v, color))
            rest ^= low
            q &= adj[v]
    return order


def _greedy_independent(cand: int, adj: list[int], reverse: bool = False) -> int:
    chosen = 0
    bits = []
    rest = cand
    while rest:
        v = (rest & -rest).bit_length() - 1
        rest &= rest - 1
        bits.append(v)
    if reverse:
        bits.reverse()
    blocked = 0
    for v in bits:
        if not (blocked >> v) & 1:
            chosen |= 1 << v
            blocked |= adj[v] | (1 << v)
    return chosen


def _is_automorphism(g: Graph, perm: Sequence[int]) -> bool:
    p = np.asarray(perm)
    if p.shape != (g.n_vertices,) or not np.array_equal(np.sort(p), np.arange(len(p))):
        return False
    a = g.adjacency
    # np.take gathers into C order; a[p][:, p] comes back column-strided
    return bool(np.array_equal(np.take(a[p], p, axis=1), a))


def _orbit(v: int, gens: list[list[int]]) -> int:
    """Bitmask of v's orbit under the group generated by `gens`."""
    orbit = 1 << v
    frontier = [v]
    while frontier:
        u = frontier.pop()
        for gen in gens:
            w = gen[u]
            if not (orbit >> w) & 1:
                orbit |= 1 << w
                frontier.append(w)
    return orbit


def max_independent_set(g: Graph, max_nodes: int = MAX_NODES,
                        initial: Iterable[Sequence[int]] = (),
                        automorphism_generators: Iterable[Sequence[int]] = (),
                        upper_bound: Optional[int] = None,
                        ) -> IndependentSetResult:
    """Exact maximum independent set by branch and bound.

    Branching follows the greedy clique-cover order (the cover size is the
    upper bound); vertices are pre-sorted by descending degree so the
    search is deterministic given the canonical vertex order.

    `initial` may carry candidate vertex sets (any iterable, read once) used
    as starting incumbents.  They are validated first, on the adjacency
    matrix: a hint with an index outside 0..n-1 (a negative index too) or
    with an edge inside it is dropped, not trusted.  The longest valid hint
    replaces the greedy incumbent only if it is strictly larger.

    `automorphism_generators` may carry vertex permutations (validated as
    automorphisms, invalid ones dropped); they drive orbital branching at
    every depth.  Each node holds generators of a group that fixes `chosen`
    pointwise and maps `cand` onto itself.  Once vertex v's branch is done,
    v's whole orbit under that group leaves `cand`, and v's child gets the
    generators that fix v.  This is exact: the removed orbits are invariant
    under the group, so `cand` stays invariant, and so does every child's
    candidate set under the child's generators.  Any independent set in
    `cand` that meets v's orbit maps, under some group element, onto one of
    the same size that contains v, so v's branch has already covered it.
    Without generators the orbit is v alone and this is the plain
    clique-cover search.

    `upper_bound` may carry a proven bound on alpha: the search stops with
    exact=True and certified=True as soon as the incumbent reaches it.  A
    hint that reaches it certifies before any search set-up (degree order,
    bit rows, greedy passes) and before `automorphism_generators` is read,
    at 0 nodes.  An incumbent above it means the bound is wrong, and raises
    InternalError.

    The search expands at most `max_nodes` nodes; if it needs more, the best
    set found so far is returned with exact=False.
    """
    n = g.n_vertices
    if n == 0:
        return IndependentSetResult(0, (), True)
    a = g.adjacency
    hints = [h for h in (sorted(set(hint)) for hint in initial)
             if h and 0 <= h[0] and h[-1] < n and not a[h][:, h].any()]
    hint = max(hints, key=len, default=[])
    if hint and len(hint) == upper_bound:  # a longer one, or a greedy set, raises below
        return IndependentSetResult(len(hint), tuple(hint), True, 0, True)

    perm = np.argsort(-g.degree_list, kind="stable")  # descending degree, then index
    adj = _row_bitmasks(np.take(a[perm], perm, axis=1))  # C order, as at `_is_automorphism`
    perm = perm.tolist()
    pos = [0] * n
    for p, v in enumerate(perm):
        pos[v] = p

    full = (1 << n) - 1
    best_mask = _greedy_independent(full, adj)
    other = _greedy_independent(full, adj, reverse=True)
    if bin(other).count("1") > bin(best_mask).count("1"):
        best_mask = other
    if len(hint) > bin(best_mask).count("1"):
        best_mask = sum(1 << pos[v] for v in hint)

    best = [bin(best_mask).count("1"), best_mask]
    stop = n + 1 if upper_bound is None else upper_bound
    nodes = [0]

    def improve(size: int, chosen: int) -> None:
        best[0] = size
        best[1] = chosen
        if size >= stop:
            raise _BoundReached

    def expand(cand: int, size: int, chosen: int, gens: list[list[int]]) -> None:
        if nodes[0] >= max_nodes:
            raise BudgetExceeded
        nodes[0] += 1
        for v, bound in reversed(_greedy_clique_cover(cand, adj, best[0] - size)):
            if size + bound <= best[0]:
                return
            if not (cand >> v) & 1:
                continue  # in the orbit of a finished branch
            # `cand` shrinks to the cover-order prefix before v, less finished orbits
            cand ^= 1 << v
            new_chosen = chosen | (1 << v)
            new_cand = cand & ~adj[v]
            if new_cand:
                expand(new_cand, size + 1, new_chosen,
                       [gen for gen in gens if gen[v] == v] if gens else gens)
            elif size + 1 > best[0]:
                improve(size + 1, new_chosen)
            if gens:
                cand &= ~_orbit(v, gens)

    exact = True
    certified = best[0] >= stop
    if not certified:
        gens = [[pos[candidate[perm[p]]] for p in range(n)]
                for candidate in automorphism_generators if _is_automorphism(g, candidate)]
        try:
            expand(full, 0, 0, gens)
        except BudgetExceeded:
            exact = False
        except _BoundReached:
            certified = True
    if best[0] > stop:
        raise InternalError(f"upper bound {upper_bound} is below an independent set "
                            f"of size {best[0]}")

    cert = []
    rest = best[1]
    while rest:
        p = (rest & -rest).bit_length() - 1
        rest &= rest - 1
        cert.append(perm[p])
    cert.sort()
    # certificate sanity: independence in the original adjacency
    if g.adjacency[cert][:, cert].any():
        raise AssertionError("internal error: certificate not independent")
    return IndependentSetResult(best[0], tuple(cert), exact, nodes[0], certified)


def k_independence_number(g: Graph, k: int, max_nodes: int = MAX_NODES,
                          initial: Iterable[Sequence[int]] = (),
                          automorphism_generators: Iterable[Sequence[int]] = (),
                          upper_bound: Optional[int] = None,
                          ) -> IndependentSetResult:
    """alpha_k(G) = alpha(G^k); equals the max code size at minimum distance k+1.

    Automorphisms of G preserve geodesic distance, so they remain
    automorphisms of every power graph; the validation inside the solver
    re-checks them against G^k regardless.
    """
    return max_independent_set(power_graph(g, k), max_nodes, initial=initial,
                               automorphism_generators=automorphism_generators,
                               upper_bound=upper_bound)


def export_edge_list(g: Graph) -> str:
    """Plain text export: first line `n m`, then one `u v` pair per line."""
    edges = g.edge_list()
    lines = [f"{g.n_vertices} {len(edges)}"]
    lines.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"
