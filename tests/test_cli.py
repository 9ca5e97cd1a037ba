import json
import os
import subprocess
import sys

import pytest
from jsonschema import validate

from freesplit import freegroup, partitions
from freesplit.cli import main

from conftest import load_schema

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enum_rank3(capsys):
    code, out, _ = run_cli(capsys, "enum", "--rank", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 28
    assert payload["class_count"] == 25
    schema = load_schema("partition")
    for p in payload["partitions"]:
        validate(p, schema)


def test_enum_thick_only(capsys):
    code, out, _ = run_cli(capsys, "enum", "--rank", "3", "--thick-only")
    assert code == 0
    assert json.loads(out)["count"] == 22


@pytest.mark.parametrize("rank", [3, 4, 5])
@pytest.mark.parametrize("thick_only", [False, True])
def test_enum_scans_the_universe_once_and_prints_the_same_bytes(monkeypatch, capsys,
                                                                rank, thick_only):
    # class_count is read off the one scan; the payload is rebuilt here from
    # the library's own enumerators.
    edges = partitions.enumerate_ideal_edges(rank, thick_only=thick_only)
    expected = json.dumps({
        "rank": rank,
        "count": len(edges),
        "class_count": len(partitions.enumerate_splitting_classes(rank)),
        "partitions": [p.to_json() for p in edges],
    }, indent=2, sort_keys=True) + "\n"
    calls = []
    real = partitions.enumerate_ideal_edges

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(partitions, "enumerate_ideal_edges", counting)
    argv = ["enum", "--rank", str(rank)] + ["--thick-only"] * thick_only
    code, out, err = run_cli(capsys, *argv)
    assert (code, err, len(calls)) == (0, "", 1)
    assert out == expected


def test_pair_verdicts(capsys):
    code, out, _ = run_cli(capsys, "pair", "--rank", "3",
                           "--p", "x2+,x3-", "--q", "x1-,x2+")
    assert code == 0
    verdict = json.loads(out)
    assert verdict["crosses"] is True
    assert verdict["cagey"] is True
    assert verdict["boundary_type"] == "cage-3"
    assert verdict["rose_compatible"] is None
    schema = load_schema("partition")
    validate(verdict["p"], schema)
    validate(verdict["q"], schema)


def test_pair_compatible_verdicts(capsys):
    code, out, _ = run_cli(capsys, "pair", "--rank", "3",
                           "--p", "x1-,x2+", "--q", "x2-,x3+")
    assert code == 0
    verdict = json.loads(out)
    assert verdict["compatible"] is True
    assert verdict["rose_compatible"] is True
    assert verdict["circle_compatible"] is False
    assert verdict["boundary_type"] is None


@pytest.mark.parametrize("name, p, q", [
    ("pair-crossing", "x2+,x3-", "x1-,x2+"),
    ("pair-compatible", "x1-,x2+", "x2-,x3+"),
    ("pair-non-ideal", "x1+,x1-", "x2+"),
    # Both partitions of petal 2: one splitting, so every relation but
    # compatibility stays null or false.
    ("pair-one-splitting", "x2+", "x2-"),
])
def test_pair_stdout_is_byte_identical_to_the_golden_file(capsys, name, p, q):
    # The files pin the whole verdict, corner sets included, byte for byte.
    code, out, err = run_cli(capsys, "pair", "--rank", "3", "--p", p, "--q", q)
    assert (code, err) == (0, "")
    with open(os.path.join(GOLDEN, name + ".json"), encoding="utf-8") as handle:
        assert out == handle.read()


def test_pair_malformed_spec_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "pair", "--rank", "3", "--p", "bogus", "--q", "x1-")
    assert code == 2
    assert "error" in err


def test_pair_rank_is_checked_before_the_directions(capsys):
    code, out, err = run_cli(capsys, "pair", "--rank", "0", "--p", "x1-", "--q", "x2+")
    assert (code, out) == (2, "")
    assert err == "error: rank 0 outside the partition guard [3, 7]\n"


@pytest.mark.parametrize("rank", ["8", "1000000"])
def test_pair_refuses_a_rank_past_the_partition_guard_at_once(capsys, rank):
    code, out, err = run_cli(capsys, "pair", "--rank", rank, "--p", "x1-", "--q", "x2+")
    assert (code, out) == (2, "")
    assert err == "error: rank %s outside the partition guard [3, 7]\n" % rank


def test_pair_names_the_first_out_of_rank_direction_in_the_text(capsys):
    code, out, err = run_cli(capsys, "pair", "--rank", "3", "--p", "x9-,x4+,x7+", "--q", "x2+")
    assert (code, out) == (2, "")
    assert err == "error: direction x9- exceeds rank 3\n"


def test_pair_accepts_a_repeated_direction(capsys):
    assert run_cli(capsys, "pair", "--rank", "3", "--p", "x2+,x2+", "--q", "x3-") == \
        run_cli(capsys, "pair", "--rank", "3", "--p", "x2+", "--q", "x3-")


def test_blowup_family_file(tmp_path, capsys):
    family = tmp_path / "family.json"
    family.write_text(json.dumps(["petal:1", "petal:2", "petal:3", "x1-,x2+"]))
    code, out, _ = run_cli(capsys, "blowup", "--rank", "3", "--family", str(family))
    assert code == 0
    payload = json.loads(out)
    shape = payload.pop("shape")
    validate(payload, load_schema("graph_of_groups"))
    assert shape["theta_with_loop"] is True


@pytest.mark.parametrize("name, specs, fmt", [
    ("blowup-theta-with-loop.json", ["petal:1", "petal:2", "petal:3", "x1-,x2+"], "json"),
    # One edge between two vertices: a cage of one edge.
    ("blowup-bridge.json", ["x1+,x1-"], "json"),
    ("blowup-separating-pair.json", ["x2+,x2-", "x3+,x3-"], "json"),
    ("blowup-rose.json", ["petal:1", "petal:2", "petal:3"], "json"),
    ("blowup-rose.dot", ["petal:1", "petal:2", "petal:3"], "dot"),
    # The boundary family of chain_partition(3, 1) and x2+,x3-: the 4-edge cage.
    ("blowup-cage.json", ["petal:1", "petal:2", "petal:3", "x1-,x2+,x3-"], "json"),
])
def test_blowup_stdout_is_byte_identical_to_the_golden_file(tmp_path, capsys, name, specs, fmt):
    # The files pin the graph and its whole shape object byte for byte.
    family = tmp_path / "family.json"
    family.write_text(json.dumps(specs))
    code, out, err = run_cli(capsys, "blowup", "--rank", "3",
                             "--family", str(family), "--format", fmt)
    assert (code, err) == (0, "")
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as handle:
        assert out == handle.read()


def test_blowup_dot_output(tmp_path, capsys):
    family = tmp_path / "family.json"
    family.write_text(json.dumps(["petal:1", "petal:2", "petal:3"]))
    code, out, _ = run_cli(capsys, "blowup", "--rank", "3",
                           "--family", str(family), "--format", "dot")
    assert code == 0
    assert out.startswith("graph")


def test_blowup_refuses_a_rank_past_the_partition_guard(tmp_path, capsys):
    family = tmp_path / "family.json"
    family.write_text(json.dumps(["petal:1"]))
    code, out, err = run_cli(capsys, "blowup", "--rank", "8", "--family", str(family))
    assert (code, out) == (2, "")
    assert err == "error: rank 8 outside the partition guard [3, 7]\n"


def test_blowup_incompatible_family_is_an_error(tmp_path, capsys):
    family = tmp_path / "family.json"
    family.write_text(json.dumps(["x2+,x3-", "x1-,x2+"]))
    code, _, err = run_cli(capsys, "blowup", "--rank", "3", "--family", str(family))
    assert code == 2
    assert "cross" in err


def test_blowup_bad_petal_spec_names_the_spec_and_the_forms(tmp_path, capsys):
    family = tmp_path / "family.json"
    family.write_text(json.dumps(["petal:x"]))
    code, out, err = run_cli(capsys, "blowup", "--rank", "3", "--family", str(family))
    assert (code, out) == (2, "")
    assert err == ("error: bad class spec 'petal:x' "
                   "(expected 'petal:<i>' or a side spec such as 'x1-,x2+')\n")


@pytest.mark.parametrize("entry", [5, ["x1-"]])
def test_blowup_family_entry_that_is_not_a_string_is_a_usage_error(tmp_path, capsys, entry):
    family = tmp_path / "family.json"
    family.write_text(json.dumps([entry]))
    code, out, err = run_cli(capsys, "blowup", "--rank", "3", "--family", str(family))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_verify_passing_lemma_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "clique-rank-3")
    assert code == 0
    report = json.loads(out)
    validate(report, load_schema("verification_report"))
    assert report["passed"] is True


def test_verify_failing_lemma_exits_one(capsys):
    code, out, _ = run_cli(capsys, "verify", "cagey-equivalence", "--rank", "3")
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False


def test_verify_missing_rank_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify", "rigid-blowup")
    assert code == 2
    assert "rank" in err


@pytest.mark.parametrize("lemma, rank", [
    ("battery", "4"),
    ("battery", "3"),
    ("clique-rank-3", "7"),
    ("whitehead-factor", "9"),
])
def test_verify_refuses_a_rank_that_nothing_reads(capsys, lemma, rank):
    code, out, err = run_cli(capsys, "verify", lemma, "--rank", rank)
    assert (code, out) == (2, "")
    assert err.startswith("error: verif") and lemma in err


def test_verify_clique_rank_3_accepts_its_own_rank(capsys):
    assert run_cli(capsys, "verify", "clique-rank-3", "--rank", "3") == \
        run_cli(capsys, "verify", "clique-rank-3")


def test_whitehead_simple(capsys):
    code, out, _ = run_cli(capsys, "whitehead", "simple", "--rank", "2",
                           "--word", "x1x2X1X2")
    assert code == 0
    payload = json.loads(out)
    assert payload["simple"] is False
    assert payload["cyclic_length"] == 4

    code, out, _ = run_cli(capsys, "whitehead", "simple", "--rank", "2",
                           "--word", "x1x2")
    assert json.loads(out)["simple"] is True


def test_whitehead_simple_refuses_a_split_token(capsys):
    code, out, err = run_cli(capsys, "whitehead", "simple", "--rank", "3", "--word", "x 1")
    assert (code, out) == (2, "")
    assert "bad word syntax" in err
    code, out, _ = run_cli(capsys, "whitehead", "simple", "--rank", "3", "--word", "x1 x2")
    assert code == 0
    assert json.loads(out)["word"] == "x1x2"


def test_whitehead_simple_minimizes_the_word_once(monkeypatch, capsys):
    calls = []
    cut_capacities = freegroup._cut_capacities

    def counted(mult):
        calls.append(1)
        return cut_capacities(mult)

    monkeypatch.setattr(freegroup, "_cut_capacities", counted)
    w = freegroup.Word.from_string(3, "x1x2x1x2x3x2X1")
    minimized = freegroup.whitehead_minimize(w)
    steps = len(calls)
    assert steps >= 3
    del calls[:]
    code, out, _ = run_cli(capsys, "whitehead", "simple", "--rank", "3",
                           "--word", "x1x2x1x2x3x2X1")
    assert code == 0
    # The greedy descent once; the minimal word's graph settles its verdict
    # with no cut table.
    assert len(calls) == steps
    payload = json.loads(out)
    assert payload["minimized"] == minimized.as_word().to_string()
    assert payload["simple"] is freegroup.is_simple(w)


def test_whitehead_simple_at_rank_one(capsys):
    code, out, err = run_cli(capsys, "whitehead", "simple", "--rank", "1", "--word", "x1x1")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"rank": 1, "word": "x1x1", "simple": False,
                               "minimized": "x1x1", "cyclic_length": 2}


def test_whitehead_rank_guard(capsys):
    built = freegroup._wh_moves.cache_info().misses
    code, out, err = run_cli(capsys, "whitehead", "simple", "--rank", "9", "--word", "x1x2")
    assert code == 2
    assert out == ""
    assert "guard" in err
    # refused before any move list was built
    assert freegroup._wh_moves.cache_info().misses == built
    code, out, err = run_cli(capsys, "whitehead", "simple", "--rank", "8", "--word", "x1x2")
    assert (code, out) == (2, "")
    assert "rank 8 outside the whitehead guard [1, 7]" in err
    assert freegroup._wh_moves.cache_info().misses == built
    code, out, err = run_cli(capsys, "whitehead", "simple", "--rank", "0", "--word", "x1")
    assert code == 2
    assert out == ""
    assert "rank 0 outside the whitehead guard [1, " in err


def test_kgraph(capsys):
    code, out, _ = run_cli(capsys, "kgraph", "--rank", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 3
    assert payload["vertices"] and payload["edges"]


@pytest.mark.parametrize("name, fmt", [("kgraph-r3.json", "json"), ("kgraph-r3.dot", "dot")])
def test_kgraph_stdout_is_byte_identical_to_the_golden_file(capsys, name, fmt):
    # The files pin the 235 roses, their 1,140 edges and both output formats.
    code, out, err = run_cli(capsys, "kgraph", "--rank", "3", "--format", fmt)
    assert (code, err) == (0, "")
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as handle:
        assert out == handle.read()


def test_verify_boundary_types_rank5_stdout_is_byte_identical_to_the_golden_file(capsys):
    code, out, err = run_cli(capsys, "verify", "boundary-types", "--rank", "5")
    assert (code, err) == (0, "")
    with open(os.path.join(GOLDEN, "verify-boundary-types-r5.json"), encoding="utf-8") as handle:
        assert out == handle.read()


def test_unknown_subcommand_exits_two():
    proc = subprocess.run(
        [sys.executable, "-m", "freesplit", "nonsense"],
        capture_output=True,
    )
    assert proc.returncode == 2


def test_output_bytes_repeat_across_invocations(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "pair", "--rank", "4",
                               "--p", "x1-,x2+", "--q", "x1-,x3+,x4-")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_workers_flag_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["--workers", "1", "enum", "--rank", "3"])
    assert exc.value.code == 2


def _assert_rank_ceiling_unread(capsys, monkeypatch, commands):
    """Return each command's (code, stdout, stderr), checked to ignore the old knob."""
    results = []
    for argv in commands:
        with pytest.raises(SystemExit) as exc:
            main(["--max-rank", "4", *argv])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: freesplit")
        expected = run_cli(capsys, *argv)
        for value in ("3", "not-a-number"):
            monkeypatch.setenv("FREESPLIT_MAX_RANK", value)
            assert run_cli(capsys, *argv) == expected
        monkeypatch.delenv("FREESPLIT_MAX_RANK")
        results.append(expected)
    return results


def test_blowup_and_kgraph_never_read_the_rank_ceiling(tmp_path, monkeypatch, capsys):
    family = tmp_path / "family.json"
    family.write_text(json.dumps(["petal:1", "petal:2", "petal:3", "x1-,x2+"]))
    results = _assert_rank_ceiling_unread(
        capsys, monkeypatch, [["blowup", "--rank", "3", "--family", str(family)],
                              ["kgraph", "--rank", "3", "--format", "dot"]])
    for code, out, err in results:
        assert (code, err) == (0, "") and out


def test_env_override_for_rank_ceiling(monkeypatch, capsys):
    # the ceiling is a constant: neither --max-rank nor FREESPLIT_MAX_RANK moves it
    enum4, enum8, simple4, simple8 = _assert_rank_ceiling_unread(
        capsys, monkeypatch, [["enum", "--rank", "4"],
                              ["enum", "--rank", "8"],
                              ["whitehead", "simple", "--rank", "4", "--word", "x1x2"],
                              ["whitehead", "simple", "--rank", "8", "--word", "x1x2"]])
    assert (enum4[0], enum4[2]) == (0, "") and (simple4[0], simple4[2]) == (0, "")
    assert (enum8[:2], simple8[:2]) == ((2, ""), (2, ""))
    assert "partition guard [3, 7]" in enum8[2] and "whitehead guard [1, 7]" in simple8[2]
    monkeypatch.setenv("FREESPLIT_MAX_RANK", "3")
    code, out, _ = run_cli(capsys, "enum", "--rank", "4")
    assert code == 0 and json.loads(out)["count"] == 120
