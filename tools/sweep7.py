#!/usr/bin/env python3
"""Label every nice graph on the vertices 0..6 and check the pinned digest.

Each of the 2**21 edge masks over ``itertools.combinations(range(7), 2)``,
bit k standing for the k-th pair, whose graph is nice is labelled with
``label_graph``, and every labelling must verify.  A sha256 is fed, in mask
order, with ``json.dumps([labels, part_of, sorted(stats.items())])`` of each
graph, as ``CRITERION_1_DIGEST`` in the acceptance tests is.

    python tools/sweep7.py

Run from anywhere; the package is imported from this checkout's ``src/``.
It prints the number of nice graphs, the digest and the first mask that
reaches each stats key, and exits 1 unless the digest equals ``DIGEST``.
It takes about 200 s on one CPU, so it is not part of the test suite; a
change that alters labels, partitions or stats reruns it.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from prodlabel import Graph, label_graph  # noqa: E402
from prodlabel.graph import is_nice  # noqa: E402

DIGEST = "ddb5cf2978c942fcbec525b74653e17d983bbbf4fecb0875d994758e300e4d4c"
PAIRS = list(itertools.combinations(range(7), 2))


def main() -> int:
    digest = hashlib.sha256()
    first: dict[str, int] = {}
    count = 0
    for mask in range(1 << len(PAIRS)):
        g = Graph(7, [pair for k, pair in enumerate(PAIRS) if mask >> k & 1])
        if not is_nice(g):
            continue
        count += 1
        rep = label_graph(g)
        if not rep.verified:
            print(f"mask {mask}: labelling does not verify", file=sys.stderr)
            return 1
        digest.update(json.dumps([rep.labelling.labels, rep.part_of,
                                  sorted(rep.stats.items())]).encode())
        for key in rep.stats:
            first.setdefault(key, mask)
    print(f"{count} nice graphs")
    print(f"digest {digest.hexdigest()}")
    for key in sorted(first):
        print(f"{key} first at mask {first[key]}")
    if digest.hexdigest() != DIGEST:
        print(f"digest differs from the pinned {DIGEST}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
