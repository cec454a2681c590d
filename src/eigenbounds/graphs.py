"""Distance graphs, regularity diagnostics, and the exact k-independence oracle.

The graph is dense (vertex count <= 2^14 guard): adjacency is a numpy uint8
matrix plus per-vertex Python-int bitmasks for the branch-and-bound solver.
Vertex order is the metric's canonical enumeration, so vertex numbering is
reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from .errors import AmbientTooLarge, BudgetExceeded, Disconnected, InternalError
from .metrics import MetricSpace, enumerate_ambient

MAX_DENSE_VERTICES = 2**14
MAX_NODES = 4_000_000  # default alpha-oracle budget, in branch-and-bound nodes
UNREACHABLE = 2**30  # sentinel exceeding any metric value


@dataclass
class Graph:
    labels: list
    adjacency: np.ndarray  # symmetric 0/1 uint8, zero diagonal

    def __post_init__(self):
        a = self.adjacency
        if a.shape[0] != a.shape[1] or np.any(np.diagonal(a)):
            raise ValueError("adjacency must be square with zero diagonal")
        if not np.array_equal(a, a.T):
            raise ValueError("adjacency must be symmetric")
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self.index) != len(self.labels):
            raise ValueError("labels must be unique")

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
    labels = enumerate_ambient(space)
    index = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)
    adj = np.zeros((n, n), dtype=np.uint8)
    for i, x in enumerate(labels):
        for y in space.neighbors(x):
            j = index.get(y)
            if j is not None and j != i:
                adj[i, j] = 1
                adj[j, i] = 1
    return Graph(labels, adj)


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
    labels = g.labels
    n = len(labels)
    for i in range(n):
        xi = labels[i]
        for j in range(i + 1, n):
            if dists[i, j] != space.distance(xi, labels[j]):
                return False
    return True


def power_graph(g: Graph, k: int, dist: Optional[np.ndarray] = None) -> Graph:
    """Same vertices, edges between vertices at geodesic distance <= k."""
    if k < 1:
        raise ValueError("k >= 1 required")
    if dist is None:
        dist = all_pairs_graph_distance(g)
    adj = ((dist > 0) & (dist <= k)).astype(np.uint8)
    return Graph(list(g.labels), adj)


def _diag_powers(adjacency: np.ndarray, k: int) -> list[np.ndarray]:
    """Diagonals of A^0..A^k as exact int64 vectors.

    Uses float64 BLAS when every intermediate is below 2^52 (entries of
    A^i are at most degree^i, so the dot-product partial sums stay exact);
    falls back to int64 matmuls otherwise.
    """
    n = adjacency.shape[0]
    diags = [np.ones(n, dtype=np.int64)]
    if n == 0 or k == 0:
        return diags
    deg_max = int(adjacency.sum(axis=1).max(initial=0))
    if n * max(1, deg_max) ** k < 2**52:
        a = adjacency.astype(np.float64)
        power = np.eye(n, dtype=np.float64)
        for _ in range(k):
            power = power @ a
            diags.append(np.diagonal(power).astype(np.int64).copy())
    else:
        a = adjacency.astype(np.int64)
        power = np.eye(n, dtype=np.int64)
        for _ in range(k):
            power = power @ a
            diags.append(np.diagonal(power).copy())
    return diags


def is_k_partially_walk_regular(g: Graph, k: int) -> bool:
    """True iff diag(A^i) is constant for every i <= k."""
    for d in _diag_powers(g.adjacency, k)[1:]:
        if d.size and (d != d[0]).any():
            return False
    return True


def triangle_delta(g: Graph) -> int:
    """Max diagonal entry of A^3 (twice the max per-vertex triangle count)."""
    return int(_diag_powers(g.adjacency, 3)[3].max(initial=0))


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


def _greedy_clique_cover(cand: int, adj: list[int]) -> list[tuple[int, int]]:
    """Greedy (first-fit) clique cover of the candidate set.

    Returns (vertex, cover_index) sorted by cover index: every vertex before
    position i lies in one of the first cover_index(v_i) cliques, so the
    independence number of {v_1..v_i} is at most cover_index(v_i).  That is
    the branch-and-bound pruning invariant.

    Classes are built one at a time on bitsets (BBMC style): the lowest
    remaining vertex starts a class, which then keeps the lowest vertex
    adjacent to every member so far.  That is first-fit in ascending vertex
    order, one class at a time.
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
    if p.shape != (g.n_vertices,) or sorted(p.tolist()) != list(range(g.n_vertices)):
        return False
    a = g.adjacency
    return bool(np.array_equal(a[np.ix_(p, p)], a))


def _orbit_representatives(cand: int, gens: list[list[int]]) -> list[int]:
    """Orbit representatives (smallest index) of the candidate set under the
    group generated by `gens`, which must map the set into itself."""
    reps = []
    seen = 0
    rest = cand
    while rest:
        v = (rest & -rest).bit_length() - 1
        rest &= rest - 1
        if (seen >> v) & 1:
            continue
        reps.append(v)
        frontier = [v]
        seen |= 1 << v
        while frontier:
            u = frontier.pop()
            for gen in gens:
                w = gen[u]
                if not (seen >> w) & 1:
                    seen |= 1 << w
                    frontier.append(w)
        rest &= ~seen
    return reps


def max_independent_set(g: Graph, max_nodes: int = MAX_NODES,
                        initial: Iterable[Sequence[int]] = (),
                        automorphism_generators: Iterable[Sequence[int]] = (),
                        upper_bound: Optional[int] = None,
                        ) -> IndependentSetResult:
    """Exact maximum independent set by branch and bound.

    Branching follows the greedy clique-cover order (the cover size is the
    upper bound); vertices are pre-sorted by descending degree so the
    search is deterministic given the canonical vertex order.

    `initial` may carry candidate vertex sets used as starting incumbents;
    each is validated against the adjacency matrix before use, so an
    invalid hint is ignored rather than trusted.  `automorphism_generators`
    may carry vertex permutations (validated as automorphisms, invalid ones
    dropped); the top two branching levels then consider only orbit
    representatives: every maximum independent set maps under the group to
    one containing a representative, so the maximum over representative
    branches is the maximum overall.

    `upper_bound` may carry a proven bound on alpha: the search stops with
    exact=True and certified=True as soon as the incumbent reaches it.  An
    incumbent above it means the bound is wrong, and raises InternalError.

    The search expands at most `max_nodes` nodes; if it needs more, the best
    set found so far is returned with exact=False.
    """
    n = g.n_vertices
    if n == 0:
        return IndependentSetResult(0, (), True)
    perm = np.argsort(-g.degree_list, kind="stable")  # descending degree, then index
    adj = _row_bitmasks(g.adjacency[np.ix_(perm, perm)])
    perm = perm.tolist()
    pos = [0] * n
    for p, v in enumerate(perm):
        pos[v] = p

    full = (1 << n) - 1
    best_mask = _greedy_independent(full, adj)
    other = _greedy_independent(full, adj, reverse=True)
    if bin(other).count("1") > bin(best_mask).count("1"):
        best_mask = other
    for hint in initial:
        hmask = 0
        for v in hint:
            hmask |= 1 << pos[v]
        ok, rest = True, hmask
        while ok and rest:  # direct adjacency validation; bad hints are dropped
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if hmask & adj[v]:
                ok = False
        if ok and bin(hmask).count("1") > bin(best_mask).count("1"):
            best_mask = hmask

    best = [bin(best_mask).count("1"), best_mask]
    stop = n + 1 if upper_bound is None else upper_bound
    nodes = [0]

    def improve(size: int, chosen: int) -> None:
        best[0] = size
        best[1] = chosen
        if size >= stop:
            raise _BoundReached

    def expand(cand: int, size: int, chosen: int, depth: int,
               active_gens: list[list[int]]) -> None:
        if nodes[0] >= max_nodes:
            raise BudgetExceeded
        nodes[0] += 1
        order = _greedy_clique_cover(cand, adj)
        if active_gens and depth < 2:
            if size + order[-1][1] <= best[0]:
                return
            for rep in _orbit_representatives(cand, active_gens):
                new_chosen = chosen | (1 << rep)
                new_cand = cand & ~adj[rep] & ~(1 << rep)
                if new_cand:
                    fixed = [gen for gen in active_gens if gen[rep] == rep]
                    expand(new_cand, size + 1, new_chosen, depth + 1, fixed)
                elif size + 1 > best[0]:
                    improve(size + 1, new_chosen)
            return
        # `cand` shrinks to the cover-order prefix before v as the loop runs
        for v, bound in reversed(order):
            if size + bound <= best[0]:
                return
            cand ^= 1 << v
            new_chosen = chosen | (1 << v)
            new_cand = cand & ~adj[v]
            if new_cand:
                expand(new_cand, size + 1, new_chosen, depth + 1, [])
            elif size + 1 > best[0]:
                improve(size + 1, new_chosen)

    exact = True
    certified = best[0] >= stop
    if not certified:
        gens = [[pos[candidate[perm[p]]] for p in range(n)]
                for candidate in automorphism_generators if _is_automorphism(g, candidate)]
        try:
            expand(full, 0, 0, 0, gens)
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
    if g.adjacency[np.ix_(cert, cert)].any():
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
