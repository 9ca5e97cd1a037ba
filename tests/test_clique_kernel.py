"""The bitset clique searches in ``complexes`` against the set-based ``clique_oracle``.

Exhaustive on the rank-3 and rank-4 ``ens`` graphs: the adjacency rows, the
exact-size clique lists at every size from 1 to 3N-3, the maximal cliques
(order included), and the clique-existence verdict on every vertex pair's
common neighbourhood at sizes 3N-4 and 3N-3.
"""

import itertools

import pytest

import clique_oracle as oracle
from freesplit.complexes import (
    build_star_graph,
    cliques_within,
    enumerate_cliques,
    maximal_cliques,
)


@pytest.fixture(scope="module", params=[3, 4])
def ens(request):
    return build_star_graph(request.param)


def test_adjacency_rows_match_the_edges(ens):
    sets = oracle.set_adjacency(ens)
    n = len(ens.vertices)
    assert [{j for j in range(n) if row >> j & 1} for row in ens.adjacency] == list(sets)


def test_exact_size_cliques_match_the_oracle(ens):
    for size in range(1, 3 * ens.rank - 2):
        assert enumerate_cliques(ens, size) == oracle.enumerate_cliques(ens, size), size


def test_maximal_cliques_match_the_oracle(ens):
    assert maximal_cliques(ens) == oracle.maximal_cliques(ens)


def test_clique_existence_matches_the_oracle(ens):
    rows, sets = ens.adjacency, oracle.set_adjacency(ens)
    sizes = (3 * ens.rank - 4, 3 * ens.rank - 3)
    found = dict.fromkeys(sizes, 0)
    for i, j in itertools.combinations(range(len(rows)), 2):
        for size in sizes:
            exists = any(cliques_within(ens, rows[i] & rows[j], size))
            assert exists == oracle.exists_clique(sets, sets[i] & sets[j], size), (i, j, size)
            found[size] += exists
    # Both verdicts occur, so the comparison is not vacuous.
    assert 0 < found[sizes[0]] < len(rows) * (len(rows) - 1) // 2
