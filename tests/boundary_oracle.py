"""Reference boundary-type verifier: one ``boundary_splitting`` per pair.

This is the verifier's loop without the orbit memo.  Every crossing thick
pair is blown up on its own, so a test can require the orbit-reduced
``verify_boundary_types`` to give the identical report, failure witnesses
and their order included.
"""

import itertools
from typing import Dict, List

from freesplit import blowup
from freesplit.partitions import crosses, enumerate_ideal_edges, is_cagey
from freesplit.verify import VerificationReport, chain_partition


def crossing_thick_pairs(rank):
    thick = enumerate_ideal_edges(rank, thick_only=True)
    return [(p, q) for p, q in itertools.combinations(thick, 2) if crosses(p, q)]


def oracle_boundary_types(rank: int, mutated: bool = False) -> VerificationReport:
    cases = 0
    failures: List[str] = []

    def check(ok, witness):
        nonlocal cases
        cases += 1
        if not ok:
            failures.append(witness)

    census: Dict[str, int] = {}
    for p, q in crossing_thick_pairs(rank):
        pair = "{%s} vs {%s}" % (p.encode(), q.encode())
        try:
            boundary = blowup.boundary_splitting(p, q)
        except ValueError as exc:
            check(False, "%s: %s" % (pair, exc))
            continue
        census[boundary.tag] = census.get(boundary.tag, 0) + 1
        edge_count = len(boundary.family)
        check(edge_count in (3, 4), "%s: %d boundary edges" % (pair, edge_count))
        if is_cagey(p, q):
            check(boundary.tag == "cage-3",
                  "%s: cagey pair classified %s" % (pair, boundary.tag))
    if mutated:
        try:
            blowup.boundary_splitting(chain_partition(rank, 1), chain_partition(rank, 2))
            check(False, "mutated: compatible pair accepted")
        except ValueError as exc:
            check(False, "mutated: %s" % exc)
    check(len(census) <= 6, "observed %d > 6 boundary classes" % len(census))
    return VerificationReport(
        lemma="boundary-types",
        rank=rank,
        cases_checked=cases,
        failures=tuple(failures),
        details=(("census", dict(sorted(census.items()))),),
    )
