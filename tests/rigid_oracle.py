"""Reference rigid-blowup verifier: the maximality scan on class predicates.

This is the verifier with every universe class tested against every
family class through ``classes_compatible`` and ``classes_rose_compatible``,
which re-check that both classes are ideal and distinct on each call.  The
library instead narrows the thick ideal side masks outside the family
through ``rose_compatible_masks``, one member at a time, and reports the
survivors in class order; a test requires the two reports to be identical.
"""

import itertools
from typing import List

from freesplit.blowup import blow_up
from freesplit.partitions import (
    Partition,
    class_of,
    classes_cagey,
    classes_compatible,
    classes_rose_compatible,
    direction_bit,
    encode_class,
    enumerate_splitting_classes,
)
from freesplit.verify import VerificationReport, rigid_blowup_family


def oracle_rigid_blowup(rank: int, mutated: bool = False) -> VerificationReport:
    cases = 0
    failures: List[str] = []

    def check(ok, witness):
        nonlocal cases
        cases += 1
        if not ok:
            failures.append(witness)

    petals, companions, tau = rigid_blowup_family(rank)
    if mutated:
        broken = Partition(rank, direction_bit(1, 1) | direction_bit(2, -1))
        companions = [class_of(broken)] + companions[1:]
    family = petals + companions

    check(len(set(family)) == 3 * rank - 3,
          "family size %d != %d" % (len(set(family)), 3 * rank - 3))
    for a, b in itertools.combinations(family, 2):
        check(classes_compatible(a, b) and classes_rose_compatible(a, b),
              "family pair not rose compatible: %s / %s" % (encode_class(a), encode_class(b)))

    members = set(family)
    for cls in enumerate_splitting_classes(rank):
        if cls in members:
            continue
        adjacent_to_all = all(
            classes_compatible(cls, f) and classes_rose_compatible(cls, f) for f in family
        )
        check(not adjacent_to_all, "clique not maximal: %s extends it" % encode_class(cls))

    try:
        graph = blow_up(family, rank)
    except ValueError as exc:
        check(False, "family does not blow up: %s" % exc)
    else:
        ranks = tuple(sorted(r for _, r in graph.vertices))
        check(set(ranks) == {0}, "blow-up has nontrivial vertex ranks %r" % (ranks,))

    for p in petals:
        check(classes_rose_compatible(tau, p),
              "sign edge not rose compatible with %s" % encode_class(p))
    for c in companions:
        check(classes_cagey(tau, c), "sign edge not cagey with %s" % encode_class(c))

    return VerificationReport(
        lemma="rigid-blowup",
        rank=rank,
        cases_checked=cases,
        failures=tuple(failures),
    )
