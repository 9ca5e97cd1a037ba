"""Acceptance criteria, one test per criterion, with stated runtime limits.

Each test prints one ``ACCEPTANCE <n> ...: PASS`` / ``FAIL`` line (visible
with ``pytest -rA``).  All tolerances are exact and combinatorial; runtime
limits follow the stated budgets.

Criterion 5 fails by design of the universe restriction: the clique
characterization of caginess needs witness systems that cross the base
rose, which the partition universe cannot represent.  The failure is
asserted honestly rather than weakened; see README "Known limitation:
criterion 5" for the analysis and ROADMAP direction 1 for the plan to close it.
"""

import itertools
import json
import random
import time

import pytest

from freesplit import complexes, verify
from freesplit.blowup import blow_up
from freesplit.freegroup import Word, canonical_cycle, is_simple
from freesplit.partitions import (
    class_of,
    classes_compatible,
    crosses,
    enumerate_ideal_edges,
    enumerate_splitting_classes,
    is_cagey,
    is_ideal,
    is_thick,
    rose_compatible,
)
from partition_oracle import signed_permutations
from whitehead_oracle import all_cyclically_reduced, letter_moves, oracle_is_simple


def announce(number, label, ok, elapsed, limit, extra=""):
    status = "PASS" if ok else "FAIL"
    suffix = (" " + extra) if extra else ""
    print("ACCEPTANCE %d %s: %s (%.1fs < %ds)%s"
          % (number, label, status, elapsed, limit, suffix))


def test_criterion_1_rigid_blowup_ranks_4_to_6():
    for rank in (4, 5, 6):
        started = time.perf_counter()
        report = verify.verify_rigid_blowup(rank)
        elapsed = time.perf_counter() - started
        ok = report.passed and elapsed < 60
        announce(1, "rigid-blowup rank=%d" % rank, ok, elapsed, 60)
        assert report.passed, report.failures[:3]
        assert elapsed < 60


def test_criterion_2_three_rose():
    started = time.perf_counter()
    r3 = verify.verify_three_rose(3)
    r4 = verify.verify_three_rose(4)
    elapsed = time.perf_counter() - started
    circle = dict(r3.details)["circle_pairs"]
    ok = r3.passed and r4.passed and elapsed < 5
    announce(2, "three-rose ranks 3,4", ok, elapsed, 5,
             "circle record %s" % ",".join(circle))
    assert r3.passed and r4.passed
    assert circle == ["tau1/sigma2", "tau2/sigma1"]
    assert elapsed < 5


def test_criterion_3_clique_rank_3():
    started = time.perf_counter()
    report = verify.verify_clique_rank3()
    elapsed = time.perf_counter() - started
    ok = report.passed and elapsed < 30
    announce(3, "clique-rank-3", ok, elapsed, 30,
             "%d cliques" % dict(report.details)["clique_count"])
    assert report.passed, report.failures[:3]
    assert elapsed < 30


def test_criterion_4_boundary_types():
    for rank, limit in ((3, 30), (4, 600)):
        started = time.perf_counter()
        report = verify.verify_boundary_types(rank)
        elapsed = time.perf_counter() - started
        census = dict(report.details)["census"]
        ok = report.passed and len(census) <= 6 and elapsed < limit
        announce(4, "boundary-types rank=%d" % rank, ok, elapsed, limit,
                 "census %s" % json.dumps(census, sort_keys=True))
        assert report.passed, report.failures[:3]
        assert len(census) <= 6
        assert elapsed < limit


def test_criterion_5_cagey_equivalence():
    started = time.perf_counter()
    report = verify.verify_cagey_equivalence(3)
    elapsed = time.perf_counter() - started
    details = dict(report.details)
    announce(5, "cagey-equivalence rank=3", report.passed and elapsed < 120,
             elapsed, 120,
             "%d/%d cagey pairs witnessed inside the universe"
             % (details["universe_witnessed"], details["cagey_pairs"]))
    assert elapsed < 120
    # Honest failure: the characterization quantifies over splittings that
    # may cross the base rose, and 48 of the 96 cagey pairs at rank 3 have
    # no witness clique inside the partition universe.  The converse
    # direction (witness implies cagey) holds on all pairs.
    assert details["clique_without_caginess"] == 0
    assert report.passed, (
        "universe-restricted clique search cannot witness %d of %d cagey "
        "pairs; see README \"Known limitation: criterion 5\" and ROADMAP direction 1"
        % (details["cagey_pairs"] - details["universe_witnessed"],
           details["cagey_pairs"])
    )


def test_criterion_6_whitehead_oracle_equivalence():
    started = time.perf_counter()
    checked = 0
    for rank, max_len in ((2, 5), (3, 4)):
        moves = letter_moves(rank)
        verdicts = {}
        for letters in all_cyclically_reduced(rank, max_len):
            w = Word(rank, letters)
            got = is_simple(w)
            # The oracle canonicalizes its input first, so caching on the
            # canonical cyclic form reruns it only once per distinct input.
            key = canonical_cycle(letters)
            expected = verdicts.get(key)
            if expected is None:
                expected = oracle_is_simple(letters, rank, moves)
                verdicts[key] = expected
            assert got == expected, (rank, letters)
            checked += 1
    assert is_simple(Word(2, (1,)))
    assert is_simple(Word(2, (2,)))
    assert not is_simple(Word(2, (1, 2, -1, -2)))
    elapsed = time.perf_counter() - started
    ok = elapsed < 300
    announce(6, "whitehead oracle equivalence", ok, elapsed, 300,
             "%d words" % checked)
    assert elapsed < 300


def test_criterion_7_whitehead_factor():
    started = time.perf_counter()
    report = verify.verify_whitehead_factor(a_rank=2, max_len=8)
    elapsed = time.perf_counter() - started
    ok = report.passed and elapsed < 300
    announce(7, "whitehead-factor max_len=8", ok, elapsed, 300,
             "%d elements" % dict(report.details)["elements"])
    assert report.passed, report.failures[:3]
    assert elapsed < 300


def test_criterion_8_property_suites():
    started = time.perf_counter()

    # Predicate equivariance under all 2^N * N! signed permutations, N=3.
    edges = enumerate_ideal_edges(3)
    pairs = list(itertools.combinations(edges, 2))
    transforms = signed_permutations(3)
    assert len(transforms) == 48
    for g in transforms:
        for p, q in pairs:
            gp, gq = g(p), g(q)
            assert crosses(gp, gq) == crosses(p, q)
            assert is_thick(gp) == is_thick(p)
            assert is_ideal(gp) == is_ideal(p)
            if class_of(p) == class_of(q):
                assert class_of(gp) == class_of(gq)
                for relation in (rose_compatible, is_cagey):
                    with pytest.raises(ValueError, match="distinct splittings"):
                        relation(gp, gq)
            else:
                assert rose_compatible(gp, gq) == rose_compatible(p, q)
                assert is_cagey(gp, gq) == is_cagey(p, q)

    # Rank conservation on 1000 random compatible families.
    rng = random.Random(2024)
    for _ in range(1000):
        rank = rng.choice((3, 4, 5))
        classes = enumerate_splitting_classes(rank)
        rng.shuffle(classes)
        family = []
        for cls in classes:
            if len(family) == rng.randint(1, 2 * rank - 1):
                break
            if all(classes_compatible(cls, other) for other in family):
                family.append(cls)
        if not family:
            family = [classes[0]]
        g = blow_up(family, rank)
        cycles = len(g.edges) - len(g.vertices) + 1
        assert cycles + sum(r for _, r in g.vertices) == rank

    # Enumeration counts at N=3.
    assert len(enumerate_ideal_edges(3)) == 28
    assert len(enumerate_splitting_classes(3)) == 25
    assert len(enumerate_ideal_edges(3, thick_only=True)) == 22

    # Clique bound at N=3.
    ens = complexes.build_star_graph(3)
    assert max(len(c) for c in complexes.maximal_cliques(ens)) == 3 * 3 - 3

    elapsed = time.perf_counter() - started
    announce(8, "property suites", elapsed < 120, elapsed, 120)
    assert elapsed < 120


def test_criterion_9_battery_determinism():
    started = time.perf_counter()
    first = verify.battery_json(verify.run_battery())
    second = verify.battery_json(verify.run_battery())
    elapsed = time.perf_counter() - started
    ok = first == second
    announce(9, "battery determinism", ok, elapsed, 600,
             "%d bytes" % len(first.encode()))
    assert first == second
