"""Command-line interface: exit codes, determinism, and verify.

Exit code contract: 0 success, 1 usage error, 2 theory/validation
failure (with a machine-readable JSON report on stdout).
"""

import hashlib
import json
import pathlib

import pytest

from ttperm.cli import run, build_parser

EXPECTED = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / \
    "expected.json"


def out_of(capsys):
    return capsys.readouterr().out


def test_kos_verify_exits_zero(capsys):
    code = run(["kos", "--group", "C4", "--subgroup", "C2",
                "--ring", "Z", "--verify"])
    assert code == 0
    data = json.loads(out_of(capsys))
    assert data["command"] == "kos"
    checks = data["audit"]["checks"]
    assert checks and all(checks.values())
    assert "base_change" in data  # --verify adds the base-change audit


def test_kos_text_format(capsys):
    code = run(["kos", "--group", "C2", "--subgroup", "1",
                "--ring", "F2", "--format", "text"])
    assert code == 0
    text = out_of(capsys)
    assert "ranks" in text and "ok" in text


def test_twisted_c3_f3_has_truncation_relation(capsys):
    code = run(["twisted", "--group", "C3", "--ring", "F3",
                "--max-twist", "3"])
    assert code == 0
    data = json.loads(out_of(capsys))
    assert "(-2): c^2 = 0" in data["presentation"]["relations"]


def test_twisted_over_coprime_fields(capsys):
    # a_N is p-torsion, so it vanishes once p is a unit in the field
    presentations = {}
    for group, ring in (("C2", "F3"), ("C3", "F2"), ("C5", "F7"),
                        ("C2", "Q")):
        code = run(["twisted", "--group", group, "--ring", ring])
        assert code == 0, (group, ring)
        data = json.loads(out_of(capsys))
        assert "(0): a = 0" in data["presentation"]["relations"]
        presentations[group, ring] = data["presentation"]
    assert presentations["C2", "F3"] == presentations["C2", "Q"]


def test_twisted_jobs_and_serial_agree(capsys):
    code = run(["twisted", "--group", "C2", "--ring", "F2",
                "--max-twist", "3"])
    assert code == 0
    serial = out_of(capsys)
    code = run(["twisted", "--group", "C2", "--ring", "F2",
                "--max-twist", "3", "--jobs", "4"])
    assert code == 0
    assert out_of(capsys) == serial


def test_twisted_window_must_be_complete():
    assert run(["twisted", "--group", "C2", "--ring", "F2",
                "--max-twist", "2", "--shift-min", "-3"]) == 1


def test_twisted_rejects_non_elementary_abelian():
    assert run(["twisted", "--group", "C4", "--ring", "F2",
                "--max-twist", "2"]) == 1


def test_spectrum_formats(capsys):
    code = run(["spectrum", "--group", "C6", "--format", "json"])
    assert code == 0
    data = json.loads(out_of(capsys))
    assert len(data["poset"]["points"]) == 8
    code = run(["spectrum", "--group", "C6", "--format", "dot"])
    assert code == 0
    assert out_of(capsys).startswith("digraph spc")


def test_spectrum_rejects_non_cyclic():
    assert run(["spectrum", "--group", "Q8"]) == 1
    assert run(["spectrum", "--group", "C2xC2"]) == 1


def test_spectrum_seed_bound():
    assert run(["spectrum", "--group", "C256", "--seed-bound", "3"]) == 1


def test_invert_unit_twist(capsys):
    code = run(["invert", "--group", "C2", "--ring", "Z"])
    assert code == 0
    data = json.loads(out_of(capsys))
    assert data["invertible"] is True


def test_usage_errors(tmp_path):
    assert run([]) == 1
    assert run(["frobnicate"]) == 1
    assert run(["kos", "--group", "C4"]) == 1              # missing subgroup
    assert run(["kos", "--group", "X9", "--subgroup", "1",
                "--ring", "Z"]) == 1                        # bad group
    assert run(["kos", "--group", "C4", "--subgroup", "C3",
                "--ring", "Z"]) == 1                        # no such subgroup
    assert run(["twisted", "--group", "C2", "--ring", "R",
                "--max-twist", "2"]) == 1                   # bad ring
    assert run(["kos", "--group", "C2", "--subgroup", "1",
                "--ring", "F4"]) == 1                       # F<n>, n not prime
    assert run(["kos", "--group", "C9", "--subgroup", "1"]) == 1  # index 9 > 4
    assert run(["kos", "--group", "C6", "--subgroup", "1"]) == 1  # not a p-group
    assert run(["kos", "--group", "C64xC2",
                "--subgroup", "1"]) == 1                    # order 128 > 64
    assert run(["invert", "--group", "C64xC2"]) == 1        # order 128 > 64
    assert run(["kos", "--group", "C4", "--subgroup", "1", "--ring", "F2",
                "--verify"]) == 1                           # base change from F2
    not_json = tmp_path / "not_json.txt"
    not_json.write_text("not json")
    assert run(["verify", str(not_json)]) == 1              # not a report
    no_group = tmp_path / "no_group.json"
    no_group.write_text('{"command": "kos"}')
    assert run(["verify", str(no_group)]) == 1              # no inputs.group


def test_subgroup_disambiguation(capsys):
    # C2xC2 has three subgroups of order 2: plain "C2" is ambiguous
    assert run(["kos", "--group", "C2xC2", "--subgroup", "C2",
                "--ring", "Z"]) == 1
    code = run(["kos", "--group", "C2xC2", "--subgroup", "C2#0",
                "--ring", "Z"])
    assert code == 0


def test_solver_cap_gives_exit_2(capsys, monkeypatch):
    monkeypatch.setenv("TTPERM_MAX_RANK", "2")
    code = run(["invert", "--group", "C2", "--ring", "Z"])
    assert code == 2
    data = json.loads(out_of(capsys))
    assert data["error"] == "SolverCapExceeded"


def test_verify_round_trip(tmp_path, capsys):
    for argv in (
        ["kos", "--group", "C4", "--subgroup", "C2", "--ring", "Z",
         "--verify"],
        ["twisted", "--group", "C2", "--ring", "F2", "--max-twist", "2"],
        ["spectrum", "--group", "C6", "--format", "json"],
        ["invert", "--group", "C3", "--ring", "Z"],
        ["invert", "--group", "C2xC2", "--subgroup", "C2#1"],
    ):
        assert run(argv) == 0
        report = out_of(capsys)
        path = tmp_path / ("%s.json" % argv[0])
        path.write_text(report)
        assert run(["verify", str(path)]) == 0
        data = json.loads(out_of(capsys))
        assert data["verified"] is True


def test_verify_detects_tampering(tmp_path, capsys):
    assert run(["twisted", "--group", "C2", "--ring", "F2",
                "--max-twist", "2"]) == 0
    data = json.loads(out_of(capsys))
    data["table"]["s=0,q=()"]["group"] = "F_2^2"
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(data))
    assert run(["verify", str(path)]) == 2


def test_verify_rejects_bad_subgroup_index(tmp_path, capsys):
    assert run(["invert", "--group", "C2", "--ring", "Z"]) == 0
    data = json.loads(out_of(capsys))
    data["inputs"]["subgroup_index"] = 1   # C2 has one index-p subgroup
    path = tmp_path / "bad_index.json"
    path.write_text(json.dumps(data))
    assert run(["verify", str(path)]) == 1


def test_reports_match_recorded_digests(capsys):
    # Reports must stay byte-identical across refactors; the digests are
    # the benchmark's, recorded from the seed.
    expected = json.loads(EXPECTED.read_text())
    for command in ("invert --group C3 --ring Z",
                    "twisted --group C2 --ring F2 --max-twist 4",
                    "spectrum --group C32 --format dot",
                    "spectrum --group C48 --format text",
                    "spectrum --group C60",
                    "kos --group C9 --subgroup C3 --verify"):
        code = run(command.split())
        digest = hashlib.sha256(out_of(capsys).encode()).hexdigest()
        assert (code, digest) == (expected[command]["exit"],
                                  expected[command]["sha256"]), command


def test_verify_missing_file():
    assert run(["verify", "/nonexistent/report.json"]) == 1


def test_output_is_deterministic(capsys):
    run(["spectrum", "--group", "C12", "--format", "json"])
    first = out_of(capsys)
    run(["spectrum", "--group", "C12", "--format", "json"])
    assert out_of(capsys) == first


def test_parser_builds():
    parser = build_parser()
    ns = parser.parse_args(["kos", "--group", "C2", "--subgroup", "1",
                            "--ring", "Z"])
    assert ns.group == "C2"
