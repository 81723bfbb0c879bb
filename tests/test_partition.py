import itertools
import random
from collections import Counter

import pytest

import prodlabel.partition as partition_module
import prodlabel.upward as upward_module
from prodlabel import label_graph
from prodlabel.graph import Graph, InvariantViolation, NotNiceError
from prodlabel.partition import (
    _certificate,
    _edge_pass,
    _vertex_witness,
    build_valid_partition,
    greedy_partition,
)

import gen
from conftest import (
    CountingEdges,
    complete_graph,
    path_graph,
    random_connected_nice_graph,
    reference_build_valid_partition,
    star_graph,
)
from spec import edge_id, missing_lower_neighbours, validate_partition

# P5 as y-x-w-z-p with ids y=0, x=1, w=2, z=3, p=4.
P5 = path_graph(5)
P5_SEED = [2, 1, 3, 2, 1]

# The path 0-1-5-3-2-4: its greedy start fails swap robustness once.
WITNESS_PATH = Graph(6, [(0, 1), (1, 5), (2, 3), (2, 4), (3, 5)])

# Graphs on which a worklist that cuts one corner of the exact update leaves
# the full scan's moves, found in seeded pools and shrunk edge by edge.
WORKLIST_CASES = {
    # Two vertices have witnesses at once; the larger one first ends elsewhere.
    "smallest-witness-first": Graph(6, [(0, 2), (0, 5), (3, 5), (2, 4), (1, 3), (1, 4)]),
    # A swappable edge appears two steps away from the moved vertices.
    "ends-within-distance-two": Graph(8, [
        (0, 1), (0, 4), (0, 5), (0, 6), (1, 5), (1, 6), (1, 7), (2, 3), (2, 4),
        (2, 5), (3, 4), (3, 6), (3, 7)]),
    # A witness changes next to a changed swappable-edge end only.
    "witnesses-next-to-changed-ends": Graph(26, [
        (16, 18), (7, 20), (12, 15), (7, 25), (1, 19), (7, 19), (0, 17), (2, 23),
        (8, 25), (0, 19), (9, 24), (19, 24), (10, 12), (18, 22), (3, 9), (8, 15),
        (13, 20), (2, 17), (18, 20), (6, 18), (11, 17), (14, 20), (10, 21), (3, 5),
        (2, 4)]),
}


def swappable_edges(g: Graph, part_of: list[int]) -> set[int]:
    """Edge ids of the swappable edges; the partition may miss lower
    neighbours, as it does midway through an exhaustive check."""
    return set(_edge_pass(g, part_of)[0].values())


def swap_witness(g: Graph, part_of: list[int]):
    """The witness the builder's certificate sweep finds first, or None."""
    return next(iter(_certificate(g, part_of)[1].values()), None)


def swap_edge(g: Graph, part_of: list[int], eid: int) -> list[int]:
    """A copy of ``part_of`` with the two ends of swappable edge ``eid``
    exchanged: the step of the exhaustive check, which TestSwapEdge tests."""
    if eid not in swappable_edges(g, part_of):
        raise ValueError(f"edge {eid} is not swappable in this partition")
    q = list(part_of)
    u, v = g.edges[eid]
    q[u], q[v] = q[v], q[u]
    return q


def exhaustive_swap_check(g: Graph, p: list[int]) -> bool:
    """Ground truth for swap robustness: try all 2**|M0| swap subsets."""
    m0 = sorted(swappable_edges(g, p))
    for r in range(len(m0) + 1):
        for subset in itertools.combinations(m0, r):
            q = p
            for eid in subset:
                q = swap_edge(g, q, eid)
            try:
                validate_partition(g, q)  # includes independence
            except ValueError:
                return False
            if missing_lower_neighbours(g, q):
                return False
    return True


class TestGreedy:
    def test_k3(self):
        assert greedy_partition(complete_graph(3)) == [1, 2, 3]

    def test_p3(self):
        # The middle vertex has the highest degree, so it is placed first.
        assert greedy_partition(path_graph(3)) == [2, 1, 2]

    def test_edgeless(self):
        assert greedy_partition(Graph(3, [])) == [1, 1, 1]

    def test_output_is_independent_and_linked(self):
        for seed in range(300):
            g = random_connected_nice_graph(random.Random(seed))
            p = greedy_partition(g)
            validate_partition(g, p)
            assert missing_lower_neighbours(g, p) == []


class TestSwappableEdges:
    def test_p5(self):
        eid_yx = edge_id(P5, 0, 1)
        eid_zp = edge_id(P5, 3, 4)
        assert swappable_edges(P5, P5_SEED) == {eid_yx, eid_zp}

    def test_k3(self):
        assert swappable_edges(complete_graph(3), [1, 2, 3]) == {0}

    def test_star_whole_component(self):
        assert swappable_edges(star_graph(3), [2, 1, 1, 1]) == set()

    def test_single_part(self):
        assert swappable_edges(Graph(3, []), [1, 1, 1]) == set()


class TestSwapEdge:
    def test_k3_swap(self):
        g = complete_graph(3)
        q = swap_edge(g, [1, 2, 3], edge_id(g, 0, 1))
        assert q == [2, 1, 3]

    def test_involution(self):
        g = complete_graph(3)
        p = [1, 2, 3]
        eid = edge_id(g, 0, 1)
        assert swap_edge(g, swap_edge(g, p, eid), eid) == p

    def test_p5_swap(self):
        q = swap_edge(P5, P5_SEED, edge_id(P5, 0, 1))
        assert q == [1, 2, 3, 2, 1]

    def test_preserves_potential_and_set(self):
        q = swap_edge(P5, P5_SEED, edge_id(P5, 0, 1))
        assert swappable_edges(P5, q) == swappable_edges(P5, P5_SEED)

    def test_rejects_non_member(self):
        with pytest.raises(ValueError, match="not swappable"):
            swap_edge(P5, P5_SEED, edge_id(P5, 1, 2))


class TestMissingLowerNeighbours:
    def test_k3_greedy_clean(self):
        p = greedy_partition(complete_graph(3))
        assert missing_lower_neighbours(complete_graph(3), p) == []

    def test_p3_bipartition_clean(self):
        assert missing_lower_neighbours(path_graph(3), [1, 2, 1]) == []

    def test_p5_after_swap(self):
        q = swap_edge(P5, P5_SEED, edge_id(P5, 0, 1))
        assert missing_lower_neighbours(P5, q) == [(2, 1)]


class TestSwapSafety:
    def test_p5_witness(self):
        # Only vertex 2 has a witness: swapping edge 0-1 strands it.
        assert _certificate(P5, P5_SEED)[1] == {2: frozenset({edge_id(P5, 0, 1)})}

    def test_k3_safe(self):
        assert swap_witness(complete_graph(3), [1, 2, 3]) is None

    def test_empty_swap_set_safe(self):
        assert swap_witness(star_graph(3), [2, 1, 1, 1]) is None

    def test_witness_strands_its_vertex(self):
        q = P5_SEED
        for eid in _certificate(P5, P5_SEED)[1][2]:
            q = swap_edge(P5, q, eid)
        assert (2, 1) in missing_lower_neighbours(P5, q)


class TestBuildValidPartition:
    def test_k3(self):
        assert build_valid_partition(complete_graph(3)) == ([1, 2, 3], {0: 0, 1: 0})

    def test_star(self):
        p, end_edge = build_valid_partition(star_graph(3))
        validate_partition(star_graph(3), p)
        assert max(p) == 2 and end_edge == {}

    def test_rejects_k2(self):
        with pytest.raises(NotNiceError):
            build_valid_partition(Graph(2, [(0, 1)]))

    def test_accepts_disconnected(self):
        g = Graph(4, [(0, 1), (1, 2)])
        p, _ = build_valid_partition(g)
        validate_partition(g, p)
        assert p[3] == 1

    def test_single_vertex(self):
        assert build_valid_partition(Graph(1, [])) == ([1], {})


# The whole-graph passes a build could make, with the objects they are looked
# up on.  _edge_pass is the one edge pass of a certificate sweep, so a build
# makes it once per sweep.  is_nice is a degree test: it reads the length of
# every adjacency list, and the one entry of each list of length one.
FULL_SCANS = {
    "_edge_pass": partition_module,
    "is_nice": partition_module,
}


def build_with_scans(monkeypatch, g):
    """build_valid_partition's result, the witnesses each of its
    ``_certificate`` sweeps found, and its calls of each name in FULL_SCANS."""
    certificate = partition_module._certificate
    sweeps, calls = [], Counter()

    def counted_certificate(g, p):
        end_edge, witnesses = certificate(g, p)
        sweeps.append(dict(witnesses))  # the builder consumes the original
        return end_edge, witnesses

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(partition_module, "_certificate", counted_certificate)
    for name, owner in FULL_SCANS.items():
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    try:
        return build_valid_partition(g), sweeps, calls
    finally:
        monkeypatch.undo()


def assert_greedy_scans(sweeps, calls):
    """A greedy-start build sweeps once, and once more after witness rounds;
    its only other whole-graph pass is the nice-graph degree test."""
    assert len(sweeps) == (2 if sweeps[0] else 1)
    assert sweeps[-1] == {}
    assert calls == {"is_nice": 1, "_edge_pass": len(sweeps)}


class TestWorklistMatchesFullScan:
    """The worklist builder makes the moves of the full rescan per round."""

    def test_seeded_connected(self, monkeypatch):
        with_rounds = 0
        for seed in range(600):
            rng = random.Random(seed)
            if seed % 2:
                g = random_connected_nice_graph(rng, n_max=14, p=rng.choice((0.0, 0.1, 0.2, 0.35)))
            else:
                n = rng.randint(10, 300)
                g = Graph(*gen.tree_plus_chords(rng, n, n - 1 + rng.randint(0, 2 * n)))
            (p, end_edge), sweeps, calls = build_with_scans(monkeypatch, g)
            assert p == reference_build_valid_partition(g), seed
            assert end_edge == _edge_pass(g, p)[0], seed
            assert_greedy_scans(sweeps, calls)
            with_rounds += bool(sweeps[0])
        assert with_rounds >= 50

    def test_component_unions(self, monkeypatch):
        with_rounds = 0
        for seed in range(400):
            rng = random.Random(seed)
            g = Graph(*gen.many_components(rng, rng.randint(2, 40)))
            (p, _), sweeps, calls = build_with_scans(monkeypatch, g)
            assert p == reference_build_valid_partition(g), seed
            assert_greedy_scans(sweeps, calls)
            with_rounds += bool(sweeps[0])
        assert with_rounds >= 30

    @pytest.mark.parametrize("name", sorted(WORKLIST_CASES))
    def test_pinned(self, monkeypatch, name):
        g = WORKLIST_CASES[name]
        (p, _), sweeps, _ = build_with_scans(monkeypatch, g)
        assert sweeps[0]
        assert p == reference_build_valid_partition(g)

    def test_witness_round(self, monkeypatch):
        (p, _), sweeps, _ = build_with_scans(monkeypatch, WITNESS_PATH)
        assert sweeps[0] and sweeps[1:] == [{}]
        assert p == [1, 2, 1, 2, 2, 1]
        assert p == reference_build_valid_partition(WITNESS_PATH)


class TestNoRescanPerRound:
    """A build scans the whole graph a fixed number of times, however many
    rounds it makes: the full rescan per round makes 17 and 6 witness scans
    on these graphs."""

    def test_sparse(self, monkeypatch):
        g = Graph(*gen.tree_plus_chords(random.Random(20_000), 20_000, 60_000))
        _, sweeps, calls = build_with_scans(monkeypatch, g)
        assert sweeps[0]
        assert_greedy_scans(sweeps, calls)

    def test_many_components(self, monkeypatch):
        g = Graph(*gen.many_components(random.Random(1500), 1500))
        _, sweeps, calls = build_with_scans(monkeypatch, g)
        assert sweeps[0]
        assert_greedy_scans(sweeps, calls)

    @pytest.mark.parametrize("make, sweeps", [
        (lambda: complete_graph(4), 1), (lambda: WITNESS_PATH, 2),
        (lambda: Graph(*gen.tree_plus_chords(random.Random(20_000), 20_000, 60_000)), 2),
    ], ids=["K4", "witness-path", "sparse"])
    def test_label_graph_builds_one_end_map_per_sweep(self, monkeypatch, make, sweeps):
        # The upward pass takes the end map of the builder's last sweep, so
        # label_graph makes one _edge_pass per certificate sweep.  K4 makes
        # no witness round, the other two make at least one.
        calls, edge_pass = [], partition_module._edge_pass
        for module in (partition_module, upward_module):
            if hasattr(module, "_edge_pass"):
                monkeypatch.setattr(module, "_edge_pass", lambda *a: calls.append(1) or edge_pass(*a))
        assert label_graph(make()).verified
        assert len(calls) == sweeps


class TestOneEdgePass:
    """A certificate sweep walks ``g.edges`` once: the part checks, the
    swappable edges and the lower-part masks all come from one pass."""

    @staticmethod
    def graphs():
        for seed in range(60):
            rng = random.Random(seed)
            if seed % 2:
                yield Graph(*gen.many_components(rng, rng.randint(2, 40)))
            else:
                n = rng.randint(10, 300)
                yield Graph(*gen.tree_plus_chords(rng, n, n - 1 + rng.randint(0, 2 * n)))
        yield WITNESS_PATH

    def test_sweep(self):
        witnesses = 0
        for g in self.graphs():
            for part_of in (greedy_partition(g), build_valid_partition(g)[0]):
                g.edges = CountingEdges(g.edges)
                witnesses += bool(_certificate(g, part_of)[1])
                assert g.edges.passes == 1
        assert witnesses >= 10

    def test_build(self, monkeypatch):
        # One pass per sweep, and none in the witness rounds between them.
        for g in self.graphs():
            g.edges = CountingEdges(g.edges)
            _, sweeps, _ = build_with_scans(monkeypatch, g)
            assert g.edges.passes == len(sweeps)


def certificate_by_definition(g: Graph, part_of: list[int]):
    """``_certificate`` from its definition: the spec's partition checks, the
    first vertex that misses a lower part, then every vertex's witness."""
    validate_partition(g, part_of)
    missing = missing_lower_neighbours(g, part_of)
    if missing:
        v = missing[0][0]
        raise ValueError(f"vertex {v} in part {part_of[v]} misses a neighbour in a lower part")
    end_edge = _edge_pass(g, part_of)[0]
    return end_edge, {v: w for v in range(g.n)
                      if (w := _vertex_witness(g, part_of, end_edge, v)) is not None}


def outcome(check, g, part_of):
    try:
        end_edge, witnesses = check(g, part_of)
    except ValueError as exc:
        return str(exc)
    return end_edge, list(witnesses.items())


class TestCertificateFilter:
    """The sweep calls ``_vertex_witness`` only where the bitmask pass leaves
    a witness possible; it must find what calling it at every vertex finds."""

    def test_matches_the_definition_on_perturbed_partitions(self):
        # Greedy and valid starts, then up to four steps, each a bottom-edge
        # swap, a move to the smallest part free of neighbours, or a move to
        # any part; the walk stops at the first partition that is refused.
        kinds = Counter()
        for seed in range(1200):
            rng = random.Random(seed)
            n = rng.randint(4, 120)
            g = Graph(*gen.tree_plus_chords(rng, n, n - 1 + rng.randint(0, n // 2)))
            part_of = greedy_partition(g) if seed % 4 else build_valid_partition(g)[0]
            for step in range(rng.randint(1, 5)):
                if step:
                    swappable = sorted(set(_edge_pass(g, part_of)[0].values()))
                    r = rng.random()
                    if swappable and r < 0.5:
                        u, v = g.edges[rng.choice(swappable)]
                        part_of[u], part_of[v] = part_of[v], part_of[u]
                    elif r < 0.85:
                        v = rng.randrange(n)
                        used = {part_of[w] for w, _ in g.adj[v]}
                        part_of[v] = min(set(range(1, len(used) + 2)) - used)
                    else:
                        part_of[rng.randrange(n)] = rng.randint(1, max(part_of) + 1)
                expected = outcome(certificate_by_definition, g, part_of)
                assert outcome(_certificate, g, part_of) == expected, (seed, step)
                if isinstance(expected, str):
                    kinds["refused"] += 1
                    break
                kinds["with witnesses" if expected[1] else "valid"] += 1
        assert min(kinds.values()) >= 150, kinds


# Greedy starts on P5 (the path 0-1-2-3-4) that break one property each.
BROKEN_STARTS = {
    "part index 0": ([0, 1, 2, 1, 2], "part indices are 1-based"),
    "edge inside a part": ([1, 1, 2, 1, 2], "part 1 is not independent"),
    "missing lower neighbour": ([1, 2, 1, 3, 1], "vertex 3 in part 3 misses"),
    "empty part": ([1, 3, 1, 3, 1], "part 2 is empty"),
}


def break_greedy_start(monkeypatch, name):
    part_of, _ = BROKEN_STARTS[name]
    monkeypatch.setattr(partition_module, "greedy_partition",
                        lambda g: list(part_of))


class TestBrokenStart:
    """A greedy start that is not what greedy_partition guarantees is a
    broken construction, caught by the first certificate sweep."""

    @pytest.mark.parametrize("name", sorted(BROKEN_STARTS))
    def test_is_internal(self, monkeypatch, name):
        break_greedy_start(monkeypatch, name)
        with pytest.raises(InvariantViolation, match=BROKEN_STARTS[name][1]):
            build_valid_partition(P5)

