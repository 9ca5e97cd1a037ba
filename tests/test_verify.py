import json
from pathlib import Path

import pytest
from jsonschema import validate

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

from conftest import load_schema


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


def test_boundary_types_negative_control():
    assert not verify_boundary_types(3, mutated=True).passed


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


def test_reports_validate_against_schema():
    schema = load_schema("verification_report")
    for report in (verify_three_rose(3), verify_rigid_blowup(4, mutated=True)):
        validate(report.to_json(), schema)
        validate(report.to_json(include_timing=True), schema)


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
    first = battery_json(run_battery())
    second = battery_json(run_battery())
    assert first == second


def test_battery_output_matches_the_benchmark_reference():
    # The benchmark checks `freesplit verify battery` stdout against this file.
    reference = Path(__file__).resolve().parents[1] / "bench" / "reference" / "battery.json"
    assert battery_json(run_battery()).encode() == reference.read_bytes()
