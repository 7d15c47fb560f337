"""Independent test oracles.

Nothing here shares algorithmic code with the package: matchings are found by
brute force over edge subsets, isomorphism classes are keyed by a
min-over-all-rootings encoding (the package roots at centroids), labeled trees
come from Prufer sequences, determinants expand by cofactors, and ranks are
read off those determinants of minors.
"""

import heapq
import itertools

from qbip.polyalg import Poly


def prufer_to_edges(seq, n):
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return edges


def all_perfect_matchings(n, edges):
    """Every perfect matching, by exhaustive search over edge subsets."""
    if n % 2:
        return []
    out = []
    for combo in itertools.combinations(edges, n // 2):
        seen = set()
        ok = True
        for u, v in combo:
            if u in seen or v in seen:
                ok = False
                break
            seen.add(u)
            seen.add(v)
        if ok and len(seen) == n:
            out.append(tuple(sorted(tuple(sorted(e)) for e in combo)))
    return out


def min_rooting_code(n, edges):
    """Canonical string by minimizing the rooted encoding over all roots."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)

    def encode(root):
        def rec(v, parent):
            return "(" + "".join(sorted(rec(w, v) for w in adj[v] if w != parent)) + ")"

        return rec(root, -1)

    return min(encode(r) for r in range(n))


def count_nonsingular_prufer(n):
    """Isomorphism classes of trees on n vertices with a perfect matching."""
    if n == 2:
        return 1
    seen = set()
    for seq in itertools.product(range(n), repeat=n - 2):
        edges = prufer_to_edges(seq, n)
        if all_perfect_matchings(n, edges):
            seen.add(min_rooting_code(n, edges))
    return len(seen)


def det_cofactor(rows):
    """Determinant by first-row cofactor expansion; entries form a ring."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = None
    for j in range(n):
        minor = [
            [rows[i][k] for k in range(n) if k != j] for i in range(1, n)
        ]
        term = rows[0][j] * det_cofactor(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


def rank_minors(rows):
    """Rank as the largest k with a nonzero k x k minor (0 for a zero matrix)."""
    m, n = len(rows), len(rows[0])
    for k in range(min(m, n), 0, -1):
        for r in itertools.combinations(range(m), k):
            for c in itertools.combinations(range(n), k):
                if det_cofactor([[rows[i][j] for j in c] for i in r]):
                    return k
    return 0


def poly_of(*coeffs):
    return Poly(coeffs)
