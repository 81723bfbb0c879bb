"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
as they pass; each test also asserts its criterion at full strength.
"""

import hashlib
import itertools
import json
import random
import time

from prodlabel import (
    Graph,
    Labelling,
    brute_force_labelling,
    brute_force_min_k,
    find_conflicts,
    label_graph,
)
from prodlabel.oracle import random_nice_graph
from prodlabel.partition import build_valid_partition, greedy_partition
from prodlabel.repair import conflict_components, nullstellensatz_assign, run_repair_pass
from prodlabel.upward import run_upward_pass

from conftest import complete_graph, exact_conflicts, induced_subgraph, parity_draw, path_graph
from spec import (connected_components, missing_lower_neighbours, parity_pass_misses, tracker,
                  validate_partition)
from test_partition import exhaustive_swap_check, swap_witness, swappable_edges
from test_upward import check_items


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def seeded_nice_graph(trial: int, n_max: int) -> Graph:
    rng = random.Random(0xACCE97 + trial)
    n = rng.randint(1, n_max)
    p = (0.05, 0.1, 0.3, 0.7)[trial % 4]
    return random_nice_graph(n, p, seed=trial)


# sha256 over criterion 1's trials, in order, of
# json.dumps([labels, part_of, sorted(stats.items())]).  A change that
# alters labels on purpose says so and updates the pin.
CRITERION_1_DIGEST = "e16d5b22c99ffda9ed261ec7d06bb62f1dca3e830011d8762f78cc9a19184a94"


def test_criterion_1_end_to_end_theorem():
    trials = 10_000
    start = time.time()
    failures = 0
    digest = hashlib.sha256()
    for trial in range(trials):
        g = seeded_nice_graph(trial, 60)
        rep = label_graph(g)
        digest.update(json.dumps([rep.labelling.labels, rep.part_of,
                                  sorted(rep.stats.items())]).encode())
        if any(lab not in (1, 2, 3) for lab in rep.labelling.labels):
            failures += 1
        elif exact_conflicts(g, rep.labelling.labels):
            failures += 1
    elapsed = time.time() - start
    report(1, failures == 0 and elapsed < 360.0,
           f"{trials - failures}/{trials} labelled and verified in {elapsed:.1f}s")
    assert digest.hexdigest() == CRITERION_1_DIGEST


def test_criterion_2_oracle_agreement():
    wanted = 2_000
    found = 0
    seed = 0
    failures = 0
    rng = random.Random(0x0AC1E)
    while found < wanted:
        g = random_nice_graph(random.Random(seed).randint(2, 9), 0.4, seed)
        seed += 1
        if g.m == 0 or g.m > 12:
            continue
        found += 1
        k = brute_force_min_k(g)
        if k is None or k > 3:
            failures += 1
            continue
        rep = label_graph(g)
        labels = rep.labelling.labels
        if exact_conflicts(g, labels) or find_conflicts(g, rep.labelling) != exact_conflicts(g, labels):
            failures += 1
            continue
        noisy = [rng.choice((1, 2, 3)) for _ in range(g.m)]
        if find_conflicts(g, Labelling(noisy)) != exact_conflicts(g, noisy):
            failures += 1
    # Larger graphs, 17-24 edges: the oracle's witness is checked too.
    wide = 0
    wide_failures = 0
    seed = 0
    while wide < 200:
        draw = random.Random(0x51DE + seed)
        g = random_nice_graph(draw.randint(6, 12), draw.choice((0.3, 0.5, 0.7, 0.9)), seed)
        seed += 1
        if not 17 <= g.m <= 24:
            continue
        wide += 1
        k = brute_force_min_k(g)
        witness = brute_force_labelling(g, k) if k else None
        if k is None or exact_conflicts(g, witness) or not label_graph(g).verified:
            wide_failures += 1
    report(2, failures == 0 and wide_failures == 0,
           f"{wanted - failures}/{wanted} graphs: min-k <= 3, "
           "construction verified, conflict lists match exact products; "
           f"{wide - wide_failures}/{wide} graphs with 17-24 edges: min-k <= 3, "
           "witness and construction verified")


def test_criterion_3_tightness():
    values = {n: brute_force_min_k(complete_graph(n)) for n in (3, 4, 5, 6, 7)}
    p3 = brute_force_min_k(path_graph(3))
    ok = all(v == 3 for v in values.values()) and p3 == 2
    report(3, ok, f"complete graphs 3..7 need exactly 3 labels {values}, path-3 needs {p3}")


def test_criterion_4_valid_partition_suite():
    graphs = 1_000
    mismatches = 0
    invalid = 0
    checked_exhaustively = 0
    for trial in range(graphs):
        g = seeded_nice_graph(trial + 50_000, 30)
        for comp in connected_components(g):
            if len(comp) < 2:
                continue
            sub, _ = induced_subgraph(g, comp)
            built, _ = build_valid_partition(sub)
            try:
                validate_partition(sub, built)
            except ValueError:
                invalid += 1
                continue
            if missing_lower_neighbours(sub, built):
                invalid += 1
                continue
            for partition in (built, greedy_partition(sub)):
                if len(swappable_edges(sub, partition)) > 12:
                    continue
                checked_exhaustively += 1
                polynomial = swap_witness(sub, partition) is None
                if polynomial != exhaustive_swap_check(sub, partition):
                    mismatches += 1
    report(4, mismatches == 0 and invalid == 0,
           f"{graphs} graphs, {checked_exhaustively} exhaustive swap-subset sweeps, "
           f"{mismatches} verdict mismatches, {invalid} invalid partitions")


def test_criterion_5_upward_postconditions():
    graphs = 1_000
    failures = 0
    for trial in range(graphs):
        g = seeded_nice_graph(trial + 90_000, 30)
        for comp in connected_components(g):
            if len(comp) < 2:
                continue
            sub, _ = induced_subgraph(g, comp)
            state, part_of, _ = run_upward_pass(sub, *build_valid_partition(sub))
            try:
                check_items(sub, part_of, state.labelling)
            except AssertionError:
                failures += 1
    report(5, failures == 0,
           f"{graphs} graphs: contract items, per-part targets, no specials, "
           f"bottom edges all 1 ({failures} violations)")


def test_criterion_6_parity_relabel_suite():
    graphs = 1_000
    failures = 0
    for trial in range(graphs):
        state, vset, root, side = parity_draw(random.Random(0xB1B + trial), 40)
        s, odd_side = (2, 3)[trial % 2], (1, 2)[trial // 2 % 2]
        failures += len(parity_pass_misses(state, vset, root, side, odd_side, s))
    report(6, failures == 0,
           f"{graphs} parity passes (n <= 40, s in {{2,3}}, odd side 1 or 2): piece leaves "
           f"the set, exact s-parities, only tree edges 1 -> s ({failures} misses)")


def test_criterion_7_nullstellensatz_exhaustive():
    instances = 0
    failures = 0
    for r in range(2, 7):
        for counts in itertools.product(range(r + 1), repeat=r):
            instances += 1
            z = nullstellensatz_assign(list(counts))
            if (len(z) != r or any(bit not in (0, 1) for bit in z)
                    or any(sum(z) - z[i] == counts[i] for i in range(r))):
                failures += 1
    report(7, failures == 0,
           f"all {instances} instances with r <= 6: a 0/1 vector of length r "
           f"with sum(z) - z[i] != counts[i] at every i")


def test_criterion_8_locality():
    trials = 1_000
    failures = 0
    for trial in range(trials):
        g = seeded_nice_graph(trial + 777_000, 40)
        for comp in connected_components(g):
            if len(comp) < 2:
                continue
            sub, _ = induced_subgraph(g, comp)
            state, part_of, _ = run_upward_pass(sub, *build_valid_partition(sub))
            before = tracker(sub, Labelling(list(state.labelling.labels)))
            touched = {v for comp in conflict_components(sub, part_of, state)[0]
                       for v in comp.vertices}
            run_repair_pass(sub, part_of, state)
            after = tracker(sub, state.labelling)
            for v in range(sub.n):
                if v not in touched and before.key(v) != after.key(v):
                    failures += 1
    report(8, failures == 0,
           f"{trials} graphs: product keys outside fixed components bit-identical "
           f"({failures} drifted)")


def test_criterion_9_determinism():
    from prodlabel.labelling import degree_counts, format_counts, format_labelling

    trials = 200
    failures = 0
    for trial in range(trials):
        g = seeded_nice_graph(trial + 31_000, 40)
        outputs = []
        for _ in range(2):
            rep = label_graph(g)
            outputs.append(format_labelling(g, rep.labelling)
                           + format_counts(*degree_counts(g, rep.labelling)))
        if outputs[0] != outputs[1]:
            failures += 1
    report(9, failures == 0, f"{trials} graphs labelled twice: byte-identical output "
           f"({failures} diverged)")
