"""Print the search verdicts of a fixed grid of classes, one line each.

    PYTHONPATH=src python tests/verdict_dump.py > tests/verdicts.txt

Each line holds the objective, the class, the shard count, then
``graphs_examined``, ``repr`` of the extremal value and the graph6 of every
witness, relabelled to the lowest mask of its orbit, in increasing order of
that mask.  The search reports witnesses in generation order and labelling,
which a change to a generator may alter while every verdict stays; that
canonicalization is why this script imports ``labeled_oracle``, whose
``lowest_mask_by_prefixes`` finds the lowest mask.  The grid is the general
classes of order <= 8 with k >= 1 and the unicyclic classes of order 3..10
at every odd girth and every k, each for min and max at 1 and 3 shards: 500
lines.  Two versions of the package agree on every verdict exactly when
their dumps are byte for byte the same.  ``tests/verdicts.txt`` holds the
dump, and ``test_search.py`` regenerates it and compares; README.md shows
how to compare two checkouts with ``cmp``.  pytest does not collect this
file.
"""

from __future__ import annotations

from labeled_oracle import lowest_mask_by_prefixes
from qminlab.graph6 import encode_graph6
from qminlab.search import ClassQuery, _witness_graphs, find_extremal


def _queries():
    for n in range(4, 9):
        for k in range(1, n - 2):
            yield ClassQuery(n=n, k=k)
    for n in range(3, 11):
        for girth in range(3, n + 1, 2):
            for k in range(0, n - 2):
                yield ClassQuery(n=n, k=k, unicyclic_girth=girth)


def verdict_lines():
    """The dump's lines, in order, without their newlines."""
    for q in _queries():
        for objective in ("min", "max"):
            for shards in (1, 3):
                result = find_extremal(q, objective, shards=shards)
                lowest = [lowest_mask_by_prefixes(q.n, w.nbr) for w in result.witnesses]
                codes = " ".join(encode_graph6(w).decode() for w in _witness_graphs(q.n, lowest))
                yield (
                    f"{objective} n={q.n} k={q.k} girth={q.unicyclic_girth} "
                    f"shards={shards}: {result.graphs_examined} "
                    f"{result.extremal_value!r} {codes}".rstrip()
                )


if __name__ == "__main__":
    for line in verdict_lines():
        print(line)
