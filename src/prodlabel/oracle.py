"""Exhaustive brute-force oracle for the smallest label count, and the
seeded random nice graphs that ``prodlabel fuzz`` and the tests label.

The construction never calls into this module: ``prodlabel oracle`` and
``prodlabel fuzz`` import it when they run, and ``prodlabel`` loads it on
the first access to ``brute_force_min_k`` or ``brute_force_labelling``.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from .graph import MAX_EDGES, Graph, is_nice


# Search nodes (single-edge label assignments) one public oracle call may
# visit, summed over every k it tries: about 0.7 s at 2.6-3.0 M nodes/s on
# one core of a shared 2-CPU Linux machine (Python 3.11).  With the twin-chain
# bound of brute_force_min_k, K8 (28 edges) needs 306 nodes and K12 (66
# edges) 4,264; with the order checked only on final products K8 needed
# 1.26 M and K9 ran out.
ORACLE_NODE_BUDGET = 2_000_000


def _least_product(t: int, r: int, k: int) -> int:
    """Least product of r labels from 1..k (k >= 2) that is at least t, or
    0 when every such product is below t.

    Exact for k = 2 and 3, where a product is 2**a * 3**b with a + b <= r
    (b = 0 for k = 2).  For k > 3 it is t itself when t <= k**r: every product
    lies in 1..k**r, so the answer is never above the exact one, which is
    all the chain bound needs, and no table grows with k or r.
    """
    if k > 3:
        return t if t <= k ** r else 0
    if k < 3:
        a = (t - 1).bit_length()
        return 1 << a if a <= r else 0
    best = 0
    power = 1  # 3**b
    for b in range(r + 1):
        a = (-(-t // power) - 1).bit_length()  # least a with power << a >= t
        if a + b <= r and (not best or power << a < best):
            best = power << a
        if power >= t:
            break
        power *= 3
    return best


def _chain_fits(chain: list[int], prod: list[int], left: list[int], k: int) -> bool:
    """Whether the twin class ``chain`` (ascending ids) can still end with
    strictly increasing products, when member x has product prod[x] so far
    and left[x] edges still unlabelled.

    The walk up the chain gives each member the least value above the
    previous member's that its product can still reach; a member with no
    such value ends the walk.  Greedy is exact here: a member's value is
    the least any increasing choice can give it, so a later member that
    finds nothing above it finds nothing above any other choice either.
    """
    prev = 0
    for x in chain:
        p = prod[x]
        if left[x]:
            q = _least_product(prev // p + 1, left[x], k)
            if not q:
                return False
            prev = p * q
        elif p > prev:
            prev = p
        else:
            return False
    return True


def _first_proper(n: int, edges: Sequence[tuple[int, int]], k: int, budget: int,
                  twins: Sequence[list[int]] = ()) -> tuple[list[int] | None, int]:
    """Lex-first proper k-labelling of ``edges`` on vertices 0..n-1 (or
    None), one label per entry of ``edges``, and the search nodes visited.

    Depth-first over ``edges`` in the order given, labels 1..k.  A vertex's
    exact integer product is final once its last incident edge is labelled,
    and each edge is checked as soon as both of its ends are final, so a
    branch dies at the first edge whose ends must end up with equal
    products.

    Each list in ``twins`` is a class of pairwise adjacent vertices in
    ascending order, c1 < c2 < ... < cs, whose products must end strictly
    increasing.  The class is checked by ``_chain_fits`` at the index where
    each member's last edge is labelled: the branch dies as soon as no
    increasing choice is left among the products the members can still
    reach.  Once every member is final, that is the check prod(c1) < ... <
    prod(cs), which stands in for the equality checks of the class's own
    edges.  The answer is then the first labelling that is proper and
    obeys those orders.
    """
    m = len(edges)
    last = [-1] * n
    left = [0] * n
    for j, (u, v) in enumerate(edges):
        last[u] = last[v] = j
        left[u] += 1
        left[v] += 1
    class_of: list[list[int] | None] = [None] * n
    chains: list[list[list[int]]] = [[] for _ in range(m)]
    for chain in twins:
        for x in chain:
            class_of[x] = chain
            here = chains[last[x]]
            if not here or here[-1] is not chain:
                here.append(chain)
    checks: list[list[tuple[int, int]]] = [[] for _ in range(m)]
    for u, v in edges:
        if class_of[u] is None or class_of[u] is not class_of[v]:
            checks[max(last[u], last[v])].append((u, v))
    prod = [1] * n
    labels = [0] * m
    nodes = 0
    j = 0
    while 0 <= j < m:
        u, v = edges[j]
        lab = labels[j]
        if lab:
            prod[u] //= lab
            prod[v] //= lab
        else:
            left[u] -= 1
            left[v] -= 1
        if lab == k:
            labels[j] = 0
            left[u] += 1
            left[v] += 1
            j -= 1
            continue
        nodes += 1
        if nodes > budget:
            raise ValueError(f"oracle search exceeded its budget of "
                             f"{ORACLE_NODE_BUDGET} nodes")
        lab += 1
        labels[j] = lab
        prod[u] *= lab
        prod[v] *= lab
        for a, b in checks[j]:
            if prod[a] == prod[b]:
                break
        else:
            for chain in chains[j]:
                if not _chain_fits(chain, prod, left, k):
                    break
            else:
                j += 1
    return (labels if j == m else None), nodes


def _true_twins(g: Graph) -> list[list[int]]:
    """The classes of true twins (vertices with equal closed
    neighbourhoods, N[u] = N[v]) that have two or more members, each in
    ascending order.  A class is a clique."""
    classes: dict[tuple[int, ...], list[int]] = {}
    for v, row in enumerate(g.adj):
        classes.setdefault(tuple(sorted([v, *(w for w, _ in row)])), []).append(v)
    return [c for c in classes.values() if len(c) > 1]


def brute_force_min_k(g: Graph, k_max: int = 3) -> int | None:
    """Smallest k <= k_max admitting a proper k-labelling, by exhaustive search.

    An edgeless graph answers 1 by convention.  None when even k_max labels
    do not suffice.  All k values share ORACLE_NODE_BUDGET search nodes;
    going over it raises ValueError.

    k = 1 is not searched on a graph with an edge: with one label every
    product is 1, so every edge conflicts.  A graph that is not nice answers
    None without a search: both ends of a two-vertex component have the
    product of its one edge under every labelling.

    The searches run over the edges in sorted (u, v) order, whatever order
    ``g`` lists them in: each vertex's edges to higher ids come together, so
    products become final early and dead branches are cut sooner.  Whether
    a proper labelling exists does not depend on the order; the node count
    does.

    They also search only labellings in which each class of true twins
    c1 < c2 < ... < cs (pairwise adjacent, with equal closed
    neighbourhoods) has prod(c1) < prod(c2) < ... < prod(cs).  This keeps
    the answer: a class of true twins is a clique, so a proper labelling
    gives its members pairwise distinct products; any permutation of the
    class is an automorphism that leaves every vertex outside it with its
    product, because it only permutes that vertex's neighbours in the
    class; so sorting each class's products by vertex id turns any proper
    labelling into a proper labelling that obeys the order.

    The order is enforced by a chain bound (see ``_first_proper``): a
    member x with product p so far and r edges left ends in p times a
    product of r labels, so a branch is cut once no strictly increasing
    choice of such values exists.  Every leaf below a cut fails the order
    at its end, so the bound only removes subtrees in which the check on
    final products would reject every leaf: the first labelling found, the
    answer and the meaning of the node budget stay as they were; only the
    node counts fall.
    """
    if k_max < 1:
        raise ValueError("k_max must be positive")
    if g.m == 0:
        return 1
    if not is_nice(g):
        return None
    edges = sorted(g.edges)
    twins = _true_twins(g)
    budget = ORACLE_NODE_BUDGET
    for k in range(2, k_max + 1):
        labels, nodes = _first_proper(g.n, edges, k, budget, twins)
        if labels is not None:
            return k
        budget -= nodes
    return None


def brute_force_labelling(g: Graph, k: int) -> list[int] | None:
    """First proper k-labelling in lexicographic order (first edge most
    significant), or None; bounded by ORACLE_NODE_BUDGET search nodes.

    The search keeps the edges in index order, because that order defines
    which labelling is first.  A graph that is not nice has no proper
    labelling, and answers None without a search.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if not is_nice(g):
        return None
    return _first_proper(g.n, g.edges, k, ORACLE_NODE_BUDGET)[0]


def random_nice_graph(n: int, p: float, seed: int) -> Graph:
    """Seeded Erdos-Renyi draw, patched to contain no two-vertex component.

    Every two-vertex component (an edge whose two ends both have degree 1)
    either gains an edge from its smaller end to the lowest-id vertex
    outside it, or loses its edge when n == 2.  An n with more than
    MAX_EDGES vertex pairs is refused before any coin is drawn.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n * (n - 1) // 2 > MAX_EDGES:
        raise ValueError(f"n = {n} has more than the limit of {MAX_EDGES} vertex pairs")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    g = Graph(n, edges)
    lonely = [(a, b) for a, b in edges if len(g.adj[a]) == len(g.adj[b]) == 1]
    if not lonely:
        return g
    if n == 2:
        return Graph(n, [])
    patched = list(edges)
    seen = set(edges)
    for a, b in lonely:  # drawn with a < b, by ascending a
        w = min({0, 1, 2} - {a, b})
        e = (min(a, w), max(a, w))
        if e in seen:
            continue  # an earlier patch already attached this pair
        seen.add(e)
        patched.append(e)
    return Graph(n, patched)
