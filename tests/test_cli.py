import json
import subprocess
import sys

import pytest
from jsonschema import validate

from freesplit import freegroup
from freesplit.cli import main

from conftest import load_schema


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


def test_pair_malformed_spec_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "pair", "--rank", "3", "--p", "bogus", "--q", "x1-")
    assert code == 2
    assert "error" in err


def test_blowup_family_file(tmp_path, capsys):
    family = tmp_path / "family.json"
    family.write_text(json.dumps(["petal:1", "petal:2", "petal:3", "x1-,x2+"]))
    code, out, _ = run_cli(capsys, "blowup", "--rank", "3", "--family", str(family))
    assert code == 0
    payload = json.loads(out)
    shape = payload.pop("shape")
    validate(payload, load_schema("graph_of_groups"))
    assert shape["theta_with_loop"] is True


def test_blowup_dot_output(tmp_path, capsys):
    family = tmp_path / "family.json"
    family.write_text(json.dumps(["petal:1", "petal:2", "petal:3"]))
    code, out, _ = run_cli(capsys, "blowup", "--rank", "3",
                           "--family", str(family), "--format", "dot")
    assert code == 0
    assert out.startswith("graph")


def test_blowup_incompatible_family_is_an_error(tmp_path, capsys):
    family = tmp_path / "family.json"
    family.write_text(json.dumps(["x2+,x3-", "x1-,x2+"]))
    code, _, err = run_cli(capsys, "blowup", "--rank", "3", "--family", str(family))
    assert code == 2
    assert "cross" in err


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


def test_whitehead_rank_guard(capsys):
    built = freegroup._wh_moves.cache_info().misses
    code, out, err = run_cli(capsys, "whitehead", "simple", "--rank", "9", "--word", "x1x2")
    assert code == 2
    assert out == ""
    assert "guard" in err
    # refused before any move list was built
    assert freegroup._wh_moves.cache_info().misses == built
    code, _, err = run_cli(capsys, "--max-rank", "3", "whitehead", "simple",
                           "--rank", "4", "--word", "x1x2")
    assert code == 2
    assert "guard" in err


def test_kgraph(capsys):
    code, out, _ = run_cli(capsys, "kgraph", "--rank", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 3
    assert payload["vertices"] and payload["edges"]


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


def test_env_override_for_rank_ceiling(monkeypatch, capsys):
    monkeypatch.setenv("FREESPLIT_MAX_RANK", "3")
    code, _, err = run_cli(capsys, "enum", "--rank", "4")
    assert code == 2
    assert "guard" in err
    # the flag wins over the environment
    code, out, _ = run_cli(capsys, "--max-rank", "4", "enum", "--rank", "4")
    assert code == 0
    assert json.loads(out)["count"] == 120
