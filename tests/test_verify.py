import itertools
import json
from pathlib import Path

import pytest
from jsonschema import validate

from freesplit import blowup, complexes, freegroup, partitions, verify
from freesplit.blowup import BoundaryType, GraphOfGroups, boundary_classes, boundary_splitting
from freesplit.partitions import (
    Partition,
    class_key,
    corner_masks,
    enumerate_ideal_edges,
    full_mask,
    is_cagey,
    parse_class,
    signed_permutation_tables,
)
from freesplit.verify import (
    BATTERY,
    battery_json,
    run_battery,
    run_verifier,
    verify_boundary_types,
    verify_cagey_equivalence,
    verify_clique_rank3,
    verify_rigid_blowup,
    verify_three_rose,
    verify_whitehead_factor,
)

import partition_oracle as oracle
import rigid_oracle
import whitehead_oracle as wh_oracle
from boundary_oracle import crossing_thick_pairs, oracle_boundary_types
from clique_rank3_oracle import oracle_clique_rank3
from conftest import load_schema
from rigid_oracle import oracle_rigid_blowup
from whitehead_oracle import reference_whitehead_factor


def test_rigid_blowup_passes_at_each_rank():
    for rank in (4, 5, 6):
        report = verify_rigid_blowup(rank)
        assert report.passed, report.failures[:3]
        assert report.rank == rank
    with pytest.raises(ValueError):
        verify_rigid_blowup(3)


def test_rigid_blowup_negative_control():
    report = verify_rigid_blowup(4, mutated=True)
    assert not report.passed
    assert report.failures


@pytest.mark.parametrize("rank", [4, 5, 6])
@pytest.mark.parametrize("mutated", [False, True])
def test_rigid_blowup_matches_the_class_predicate_oracle(rank, mutated):
    assert_same_report(verify_rigid_blowup(rank, mutated=mutated), oracle_rigid_blowup(rank, mutated))


@pytest.mark.parametrize("rank", [4, 5, 6])
@pytest.mark.parametrize("kept, extenders", [
    (slice(None, -1), {4: 3, 5: 3, 6: 3}),  # the last companion dropped
    (slice(1, -1), {4: 8, 5: 5, 6: 5}),  # the first and the last dropped
])
def test_a_clique_short_of_its_companions_reports_its_extenders_in_class_order(
        monkeypatch, rank, kept, extenders):
    real = verify.rigid_blowup_family

    def short_family(rank):
        petals, companions, tau = real(rank)
        return petals, companions[kept], tau

    monkeypatch.setattr(verify, "rigid_blowup_family", short_family)
    monkeypatch.setattr(rigid_oracle, "rigid_blowup_family", short_family)
    got = verify_rigid_blowup(rank)
    assert_same_report(got, rigid_oracle.oracle_rigid_blowup(rank))
    prefix, suffix = "clique not maximal: ", " extends it"
    found = [f[len(prefix):-len(suffix)] for f in got.failures if f.startswith(prefix)]
    assert len(found) == extenders[rank]
    keys = [class_key(parse_class(rank, text)) for text in found]
    assert keys == sorted(keys)
    companions = real(rank)[1]
    assert {c.encode() for c in companions} - {c.encode() for c in companions[kept]} <= set(found)


@pytest.mark.parametrize("mutated, calls", [(False, [135, 571, 2335]), (True, [139, 577, 2343])])
def test_rigid_blowup_narrows_its_candidates_without_building_the_universe(
        monkeypatch, mutated, calls):
    # Each family member, from the last companion back, tests only the thick
    # ideal masks outside the clique that every later member kept.
    kernel_calls = []
    real = verify.rose_compatible_masks

    def counting(a, b, rank):
        kernel_calls.append((a, b))
        return real(a, b, rank)

    def refuse(*args, **kwargs):
        raise AssertionError("the maximality scan built the universe")

    monkeypatch.setattr(verify, "rose_compatible_masks", counting)
    monkeypatch.setattr(verify, "enumerate_ideal_edges", refuse)
    for name in ("enumerate_ideal_edges", "enumerate_splitting_classes"):
        monkeypatch.setattr(partitions, name, refuse)
    assert not hasattr(verify, "enumerate_splitting_classes")
    made = []
    for rank in (4, 5, 6):
        del kernel_calls[:]
        assert verify_rigid_blowup(rank, mutated=mutated).passed is not mutated
        made.append(len(kernel_calls))
    assert made == calls


def test_three_rose_passes_and_records_circle_pairs():
    r3 = verify_three_rose(3)
    assert r3.passed
    assert dict(r3.details)["circle_pairs"] == ["tau1/sigma2", "tau2/sigma1"]
    r4 = verify_three_rose(4)
    assert r4.passed
    with pytest.raises(ValueError):
        verify_three_rose(5)


def test_three_rose_negative_control():
    assert not verify_three_rose(3, mutated=True).passed


def test_clique_rank3_passes_with_both_shapes():
    report = verify_clique_rank3()
    assert report.passed
    details = dict(report.details)
    assert details["clique_count"] == 328
    assert details["shape_census"] == {"cage": 52, "theta_with_loop": 276}


def test_clique_rank3_negative_control():
    assert not verify_clique_rank3(mutated=True).passed


@pytest.mark.parametrize("mutated", [False, True])
def test_clique_rank3_matches_the_per_clique_oracle(mutated):
    got = verify_clique_rank3(mutated=mutated)
    assert report_bytes(got) == report_bytes(oracle_clique_rank3(mutated))


@pytest.mark.parametrize("mutated, blow_ups", [(False, 328), (True, 329)])
def test_clique_rank3_blows_up_each_clique_once(monkeypatch, mutated, blow_ups):
    calls = []
    real = verify.blow_up

    def counting_blow_up(family, rank):
        calls.append(frozenset(c.mask for c in family))
        return real(family, rank)

    monkeypatch.setattr(verify, "blow_up", counting_blow_up)
    verify_clique_rank3(mutated=mutated)
    assert len(calls) == len(set(calls)) == blow_ups


def test_clique_rank3_reports_nontrivial_vertex_groups(monkeypatch):
    # A rank-3 cage or theta has trivial vertex groups by rank conservation,
    # so only a quotient of another shape can carry a rank-1 vertex.
    three_edges = GraphOfGroups(rank=3, vertices=(("v0", 0), ("v1", 1)), edges=tuple(
        ("e%d" % i, ("v0", "v1")) for i in range(3)))
    monkeypatch.setattr(verify, "blow_up", lambda family, rank: three_edges)
    failures = verify_clique_rank3().failures
    assert sum(f.startswith("4-clique has nontrivial vertex groups: ") for f in failures) == 328
    assert sum(f.startswith("4-clique has unexpected shape: ") for f in failures) == 328


def test_boundary_types_pass_with_frozen_census():
    r3 = verify_boundary_types(3)
    assert r3.passed
    assert dict(r3.details)["census"] == {
        "cage-2-plus-loop": 18,
        "cage-3": 96,
        "loop-plus-bridge": 3,
        "separating-bridge": 36,
    }
    r4 = verify_boundary_types(4)
    assert r4.passed
    assert len(dict(r4.details)["census"]) == 6


def test_boundary_types_rank5_census_matches_the_exhaustive_scan():
    # The six counts of a full scan of the 96,735 crossing thick pairs.
    report = verify_boundary_types(5)
    assert report.passed
    assert dict(report.details)["census"] == {
        "cage-2-plus-loop": 600,
        "cage-3": 79680,
        "loop-plus-bridge": 35,
        "separating-bridge": 14280,
        "theta-variant": 1680,
        "two-loops-bridge": 460,
    }


def test_the_mutated_rank5_boundary_report_is_byte_identical_to_the_golden_file():
    golden = Path(__file__).resolve().parent / "golden" / "boundary-types-r5-mutated.json"
    report = verify_boundary_types(5, mutated=True)
    assert json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n" == golden.read_text()


@pytest.mark.parametrize("rank", [2, 6])
def test_boundary_types_refuse_ranks_outside_3_to_5(rank):
    with pytest.raises(ValueError, match="boundary-type verification runs at ranks 3 to 5"):
        verify_boundary_types(rank)


def test_boundary_types_negative_control():
    assert not verify_boundary_types(3, mutated=True).passed


def report_bytes(report):
    return json.dumps(report.to_json(), sort_keys=True)


def assert_same_report(got, want):
    # Failures first: a sequence diff names the first mismatch, where a diff
    # of two long JSON strings can take minutes.
    assert got.failures == want.failures
    assert got.to_json() == want.to_json()


@pytest.mark.parametrize("rank", [3, 4])
@pytest.mark.parametrize("mutated", [False, True])
def test_boundary_types_match_the_per_pair_oracle(rank, mutated):
    got = verify_boundary_types(rank, mutated=mutated)
    assert report_bytes(got) == report_bytes(oracle_boundary_types(rank, mutated))


@pytest.mark.parametrize("rank", [3, 4])
def test_boundary_type_is_invariant_under_each_generator(rank):
    # The orbit replay rests on this: a generator's image of a crossing pair
    # has a boundary splitting with the same edge count and tag.  One pair
    # stands for each boundary family.
    pairs = {boundary_classes(p, q): (p, q) for p, q in crossing_thick_pairs(rank)}
    for table in signed_permutation_tables(rank):
        for p, q in pairs.values():
            want = boundary_splitting(p, q)
            got = boundary_splitting(Partition(rank, table[p.mask]),
                                     Partition(rank, table[q.mask]))
            assert (len(got.family), got.tag) == (len(want.family), want.tag)


@pytest.mark.parametrize("rank, crossing", [(3, 153), (4, 4564), (5, 96735)])
def test_caginess_is_constant_on_each_corner_set_orbit(rank, crossing):
    # The boundary replay stores caginess per orbit of the corner set.
    edges = enumerate_ideal_edges(rank, thick_only=True)
    full = full_mask(rank)
    cagey = {}
    pairs = 0
    for p, q in itertools.combinations(edges, 2):
        a, b = p.mask, q.mask
        if a & b and a & ~b and b & ~a:
            pairs += 1
            value = is_cagey(p, q)
            assert cagey.setdefault(frozenset((a & b, a & ~b, b & ~a, full ^ (a | b))),
                                    value) == value
    assert pairs == crossing
    for table in signed_permutation_tables(rank):
        for key, value in cagey.items():
            assert cagey[frozenset(table[m] for m in key)] == value, key


def test_a_failing_orbit_representative_is_replayed_for_every_pair_of_its_orbit(monkeypatch):
    pairs = crossing_thick_pairs(3)
    p0, q0 = pairs[1]  # the representative of the largest rank-3 orbit
    orbit = {frozenset(corner_masks(g(p0), g(q0))) for g in oracle.signed_permutations(3)}
    assert frozenset(corner_masks(*pairs[0])) not in orbit
    in_orbit = [(p, q) for p, q in pairs if frozenset(corner_masks(p, q)) in orbit]
    assert len(in_orbit) == 72
    target = boundary_classes(p0, q0)
    calls = []
    real = verify.boundary_splitting

    def split_or_fail(p, q):
        calls.append(boundary_classes(p, q))
        if calls[-1] == target:
            raise ValueError("injected")
        return real(p, q)

    monkeypatch.setattr(verify, "boundary_splitting", split_or_fail)
    got = verify_boundary_types(3)
    assert len(calls) == 6  # one blow-up per orbit
    assert calls.count(target) == 1
    assert list(got.failures) == [
        "{%s} vs {%s}: injected" % (p.encode(), q.encode()) for p, q in in_orbit
    ]


@pytest.mark.parametrize("rank", [3, 4])
def test_wrong_tags_and_short_families_are_reported_like_the_per_pair_oracle(monkeypatch, rank):
    # Orbit by orbit: the first cagey orbit gets a wrong tag, the second
    # cagey orbit a wrong tag and two edges, the first other orbit two edges.
    signed = oracle.signed_permutations(rank)
    keys = [frozenset(corner_masks(p, q)) for p, q in crossing_thick_pairs(rank)]
    orbits = []
    for key, (p, q) in zip(keys, crossing_thick_pairs(rank)):
        if not any(key in orbit for orbit, _ in orbits):
            orbits.append(({frozenset(corner_masks(g(p), g(q))) for g in signed}, is_cagey(p, q)))
    cagey = [orbit for orbit, c in orbits if c]
    other = [orbit for orbit, c in orbits if not c]
    real = blowup.boundary_splitting

    def misreport(p, q):
        boundary = real(p, q)
        key = frozenset(corner_masks(p, q))
        if key in cagey[0]:
            return BoundaryType("separating-bridge", boundary.family)
        if key in cagey[1]:
            return BoundaryType("theta-variant", boundary.family[:2])
        if key in other[0]:
            return BoundaryType(boundary.tag, boundary.family[:2])
        return boundary

    monkeypatch.setattr(verify, "boundary_splitting", misreport)
    monkeypatch.setattr(blowup, "boundary_splitting", misreport)
    got = verify_boundary_types(rank)
    assert_same_report(got, oracle_boundary_types(rank))
    wrong_tag = [f for f in got.failures if f.endswith(": cagey pair classified separating-bridge")]
    two_edges = [f for f in got.failures if f.endswith(": 2 boundary edges")]
    pairs = [sum(key in orbit for key in keys) for orbit in (cagey[0], cagey[1], other[0])]
    assert len(wrong_tag) == pairs[0]
    assert len(two_edges) == pairs[1] + pairs[2]
    assert len(got.failures) == pairs[0] + 2 * pairs[1] + pairs[2]


def test_an_image_off_the_pair_keys_stops_the_run(monkeypatch):
    # Swapping x1+ with x2+ alone is no signed permutation; at rank 4 it maps
    # some corner sets to sets that no crossing thick pair has.
    swap = tuple(m & ~0b101 | (m & 1) << 2 | (m >> 2 & 1) for m in range(1 << 8))
    monkeypatch.setattr(partitions, "signed_permutation_tables", lambda rank: (swap,))
    with pytest.raises(RuntimeError, match="off the crossing thick pairs"):
        verify_boundary_types(4)


def _bit_swap(rank, i, j):
    """The table of the permutation of mask bits that swaps bits i and j."""
    def image(m):
        return m & ~(1 << i | 1 << j) | (m >> i & 1) << j | (m >> j & 1) << i
    return tuple(map(image, range(1 << 2 * rank)))


def test_a_table_that_is_no_signed_permutation_stops_the_run(monkeypatch):
    # At rank 3 every permutation of the six bits maps the crossing thick
    # pairs' corner sets among themselves, so only a check of the table
    # itself can see that a transposition merges orbits.
    real = signed_permutation_tables(3)
    identity = list(range(1 << 6))
    identity[0b11], identity[0b1100] = 0b1100, 0b11  # fixes every bit, not bitwise
    broken = [_bit_swap(3, i, j) for i in range(6) for j in range(i + 1, 6) if i // 2 != j // 2]
    assert len(broken) == 12
    for table in broken + [tuple(identity)]:
        monkeypatch.setattr(partitions, "signed_permutation_tables",
                            lambda rank: (real[0], table))
        with pytest.raises(RuntimeError, match="table 1 is no signed permutation"):
            verify_boundary_types(3)


def test_cagey_equivalence_documents_the_missing_witnesses():
    # The clique characterization, restricted to universe witnesses, does
    # not reproduce direct caginess: at rank 3 exactly half the cagey pairs
    # have no universe witness, always in the one direction theory allows.
    report = verify_cagey_equivalence(3)
    assert not report.passed
    details = dict(report.details)
    assert details["cagey_pairs"] == 96
    assert details["universe_witnessed"] == 48
    assert details["clique_without_caginess"] == 0
    assert len(report.failures) == 48
    assert all("direct=True clique=False" in f for f in report.failures)


def test_cagey_equivalence_negative_control():
    assert not verify_cagey_equivalence(3, mutated=True).passed


def test_whitehead_factor_passes():
    report = verify_whitehead_factor()
    assert report.passed
    assert dict(report.details)["elements"] == 13218


@pytest.mark.parametrize("a_rank, w, max_len", [
    (2, "x1x2X1X2", 8),
    (2, "x1x2X1X2", 6),
    (2, "x1x2X1X2x1x1", 6),
])
@pytest.mark.parametrize("mutated", [False, True])
def test_whitehead_factor_matches_the_word_by_word_oracle(a_rank, w, max_len, mutated):
    w = freegroup.Word.from_string(a_rank, w)
    assert_same_report(verify_whitehead_factor(a_rank, w, max_len, mutated=mutated),
                       reference_whitehead_factor(a_rank, w, max_len, mutated))


def test_whitehead_factor_builds_words_only_for_simplicity_tests(monkeypatch):
    built = []
    validate_word = freegroup.Word.__init__
    tested = []
    is_simple = freegroup.is_simple

    def counting_word(self, rank, letters):
        built.append(letters)
        validate_word(self, rank, letters)

    def counting_is_simple(w):
        tested.append(w)
        return is_simple(w)

    monkeypatch.setattr(freegroup.Word, "__init__", counting_word)
    monkeypatch.setattr(freegroup, "is_simple", counting_is_simple)
    assert verify_whitehead_factor().passed
    assert tested
    assert len(built) <= 2 * len(tested) + 10, (len(built), len(tested))


@pytest.mark.parametrize("a_rank, w, max_len, plain, mutated", [
    (2, "x1x2X1X2", 8, 0, 41),
    (2, "x1x2X1X2", 10, 0, 125),
    (3, "x1x2X3", 6, 0, 16),
])
def test_the_stable_conjugate_alternative_passes_elements_only_in_the_mutated_control(
        a_rank, w, max_len, plain, mutated):
    # In F_{a+1}, t w t^-1 is conjugate to w, which lies in A: an element
    # conjugate to it is conjugate into A, and the first alternative takes
    # it.  Only the mutated control's smaller factor leaves some to the second.
    w = freegroup.Word.from_string(a_rank, w)
    u_cycle = wh_oracle._canon((a_rank + 1,) + tuple(w.letters) + (-a_rank - 1,))
    counts = []
    for factor_rank in (a_rank, a_rank - 1):
        counts.append(sum(
            1 for g in freegroup.factor_product_letters(a_rank, w, max_len, factor_rank)
            if max(map(abs, wh_oracle._cyclic(g))) > factor_rank
            and wh_oracle._canon(g) == u_cycle
        ))
    assert counts == [plain, mutated]


def test_whitehead_factor_rejects_simple_hypothesis():
    from freesplit.freegroup import Word

    with pytest.raises(ValueError):
        verify_whitehead_factor(w=Word.from_string(2, "x1"))


def test_whitehead_factor_negative_control():
    report = verify_whitehead_factor(max_len=3, mutated=True)
    assert not report.passed
    assert any("x2" in f for f in report.failures)


def test_failures_empty_iff_passed():
    reports = [
        verify_three_rose(3),
        verify_three_rose(3, mutated=True),
        verify_cagey_equivalence(3),
    ]
    for report in reports:
        assert report.passed == (not report.failures)


def test_run_verifier_dispatch():
    assert run_verifier("three-rose", 3).passed
    with pytest.raises(ValueError):
        run_verifier("bogus-lemma")


@pytest.mark.parametrize("lemma, rank", [("clique-rank-3", 7), ("whitehead-factor", 9)])
def test_run_verifier_refuses_a_rank_other_than_3_for_fixed_rank_lemmas(lemma, rank):
    with pytest.raises(ValueError, match="verifier %s runs at rank 3 only" % lemma):
        run_verifier(lemma, rank)
    assert run_verifier(lemma, 3).to_json() == run_verifier(lemma).to_json()


def test_run_verifier_checks_the_rank_whitehead_factor_runs_at():
    # run_verifier passes no keyword on, so the rank it checks is the one run
    with pytest.raises(TypeError):
        run_verifier("whitehead-factor", 3, a_rank=3)
    with pytest.raises(ValueError, match="whitehead-factor runs at rank 3 only, not rank 4"):
        run_verifier("whitehead-factor", 4)


@pytest.mark.parametrize("lemma", ["rigid-blowup", "three-rose", "boundary-types",
                                   "cagey-equivalence"])
def test_run_verifier_refuses_a_missing_rank(lemma):
    with pytest.raises(ValueError, match="verifier %s needs a rank" % lemma):
        run_verifier(lemma)


def test_reports_validate_against_schema():
    schema = load_schema("verification_report")
    for report in (verify_three_rose(3), verify_rigid_blowup(4, mutated=True)):
        validate(report.to_json(), schema)


def test_report_json_is_deterministic_across_runs():
    a = verify_boundary_types(3)
    b = verify_boundary_types(3)
    assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(b.to_json(), sort_keys=True)


def test_battery_covers_every_verifier_and_repeats_bytewise():
    lemmas = {lemma for lemma, _ in BATTERY}
    assert lemmas == {
        "rigid-blowup", "three-rose", "clique-rank-3",
        "boundary-types", "cagey-equivalence", "whitehead-factor",
    }
    # A report holds no clock, so two runs compare equal as values too.
    first, second = run_battery(), run_battery()
    assert len(first) == len(second) == len(BATTERY)
    assert first == second
    assert battery_json(first) == battery_json(second)
    # Details may hold lists and dicts, so every report refuses hashing alike.
    for report in first:
        with pytest.raises(TypeError):
            hash(report)


def test_battery_output_matches_the_benchmark_reference():
    # The benchmark checks `freesplit verify battery` stdout against this file.
    reference = Path(__file__).resolve().parents[1] / "bench" / "reference" / "battery.json"
    assert battery_json(run_battery()).encode() == reference.read_bytes()


def test_the_battery_blows_up_boundary_pairs_once_per_orbit(monkeypatch):
    # rigid-blowup 3, three-rose 2, clique-rank-3 one per clique (328),
    # boundary-types 6 orbits at rank 3 and 24 at rank 4.  A boundary scan
    # that slides back to one blow-up per crossing pair raises this count.
    calls = []
    real = blowup.blow_up

    def counting_blow_up(family, rank):
        calls.append(rank)
        return real(family, rank)

    for module in (blowup, complexes, verify):
        monkeypatch.setattr(module, "blow_up", counting_blow_up)
    run_battery()
    assert len(calls) == 363


def test_the_battery_runs_no_separating_edge_scan(monkeypatch):
    # No battery statement reads a separating edge, so the scans of the CLI's
    # blowup shape object must stay unrun: three-rose reads only the sigma rose.
    calls = []
    real = GraphOfGroups.disconnects_without

    def counting_disconnects_without(graph, labels):
        calls.append(graph)
        return real(graph, labels)

    monkeypatch.setattr(GraphOfGroups, "disconnects_without", counting_disconnects_without)
    run_battery()
    assert len(calls) == 0
