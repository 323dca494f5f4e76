"""Command-line interface: exit codes, determinism, and verify.

Exit code contract: 0 success, 1 usage error or an input over a
user-set bound such as TTPERM_MAX_RANK (with a message on stderr), 2
theory/validation failure (with a machine-readable JSON report on
stdout).
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


def _parse_table_tag(G, tag):
    """(shift, twist) of a table key "s=<shift>,q=(<elements>:<e>;...)"."""
    from ttperm.twisted import Twist, index_p_normal_subgroups
    by_elements = {",".join(map(str, N.elements)): N
                   for N in index_p_normal_subgroups(G)}
    shift, twist = tag[len("s="):-1].split(",q=(")
    return int(shift), Twist([(by_elements[nel], int(e)) for nel, e in
                              (part.split(":") for part in twist.split(";")
                               if part)])


def test_twisted_c3xc3_f3_agrees_with_the_bruteforce_oracle(capsys):
    # the odd rank-2 table: four index-3 subgroups, each with a, b and c
    from ttperm.grp import parse_group_name
    from ttperm.homotopy import hom_group_bruteforce
    from ttperm.rings import GF
    from ttperm.twisted import canonical_u_power, index_p_normal_subgroups
    argv = ["twisted", "--group", "C3xC3", "--ring", "F3", "--max-twist", "2"]
    assert run(argv) == 0
    first = out_of(capsys)
    assert run(argv) == 0
    assert out_of(capsys) == first
    data = json.loads(first)
    G = parse_group_name("C3xC3")
    Ns = index_p_normal_subgroups(G)
    assert len(Ns) == 4
    assert data["presentation"]["generators"] == sorted(
        "%s[%s]" % (sym, ",".join(map(str, N.elements)))
        for sym in "abc" for N in Ns)
    checked = 0
    for tag, ent in data["table"].items():
        s, q = _parse_table_tag(G, tag)
        Y = canonical_u_power(G, q, GF(3))
        if q.total() > 1 or Y.total_rank() > 40:
            continue
        fg, _ = hom_group_bruteforce(Y, s)
        assert (ent["free_rank"], ent["torsion"]) == \
            (fg.free_rank(), list(fg.torsion())), tag
        checked += 1
    # twist 0 and the four e_N, each over the shifts -4..0
    assert checked == 25


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="integral rank-2 tables miss a "
                   "Bockstein-type generator: entry (-1, e_N + e_N') is "
                   "nonzero but no monomial lands there")
@pytest.mark.parametrize("group", ["C2xC2", "C2xC2xC2", "C3xC3"])
def test_integral_rank_2_tables_are_spanned_by_their_generators(group,
                                                                capsys):
    code = run(["twisted", "--group", group, "--ring", "Z",
                "--max-twist", "2"])
    out = out_of(capsys)
    assert code == 0, out


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="rank-2 tables at total twist 3 miss a class: "
                   "entry (-3, e_N1 + e_N2 + e_N3) is nonzero but no "
                   "monomial lands there")
@pytest.mark.parametrize("argv", [
    "twisted --group C2xC2 --ring Q --max-twist 3",
    "twisted --group C2xC2 --ring F3 --max-twist 3",
    "twisted --group C2xC2 --ring F5 --max-twist 3",
    "twisted --group C2xC2 --ring Z --max-twist 3",
    "twisted --group C2xC2 --ring Q",
    "twisted --group C2xC2xC2 --ring Q --max-twist 3",
])
def test_rank_2_tables_at_twist_3_are_spanned_by_their_generators(argv,
                                                                  capsys):
    code = run(argv.split())
    out = out_of(capsys)
    assert code == 0, out


@pytest.mark.parametrize("ring", ["Q", "F3", "F5", "Z"])
def test_c2xc2_entry_at_all_three_twists_agrees_with_the_oracle(ring):
    # the entry the tables above cannot span is right: rationally u_N is
    # chi_N[1] and chi_1 chi_2 chi_3 = 1, so it holds one free class
    from ttperm.grp import parse_group_name
    from ttperm.homotopy import hom_group_bruteforce
    from ttperm.rings import domain_from_name
    from ttperm.twisted import (Twist, canonical_u_power,
                                index_p_normal_subgroups, twisted_table)
    G = parse_group_name("C2xC2")
    R = domain_from_name(ring)
    q = Twist([(N, 1) for N in index_p_normal_subgroups(G)])
    fg, _ = hom_group_bruteforce(canonical_u_power(G, q, R), -3)
    assert fg.iso_invariants() == (1, ())
    ent = twisted_table(G, R, 3).entries[(-3, q.key())]
    assert (ent["free_rank"], tuple(ent["torsion"])) == (1, ())


def test_twisted_window_must_be_complete():
    assert run(["twisted", "--group", "C2", "--ring", "F2",
                "--max-twist", "2", "--shift-min", "-3"]) == 1


def test_twisted_rejects_inverted_shift_window(capsys):
    # an empty window would print an empty table that still claims its
    # relations complete up to the total twist
    assert run(["twisted", "--group", "C2", "--ring", "F2",
                "--shift-min", "0", "--shift-max", "-3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--shift-min 0 is above --shift-max -3" in captured.err


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


def test_spectrum_order_cap(capsys):
    # the order cap refuses C256 as a usage error
    assert run(["spectrum", "--group", "C256"]) == 1
    assert "groups of order at most 64 are supported" in \
        capsys.readouterr().err


def test_spectrum_has_no_seed_bound_option(capsys):
    # an order-64 cyclic group has modular chains of length at most 6,
    # so no chain-length bound is needed, and none is accepted
    assert run(["spectrum", "--group", "C4", "--seed-bound", "3"]) == 1
    assert "unrecognized arguments: --seed-bound 3" in \
        capsys.readouterr().err


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
    assert run(["twisted", "--group", "C2", "--ring", "F2",
                "--jobs", "4"]) == 1                        # no --jobs flag
    assert run(["kos", "--group", "C2", "--subgroup", "1",
                "--ring", "F4"]) == 1                       # F<n>, n not prime
    assert run(["kos", "--group", "C9", "--subgroup", "1"]) == 1  # index 9 > 4
    assert run(["kos", "--group", "C6", "--subgroup", "1"]) == 1  # not a p-group
    assert run(["kos", "--group", "C64xC2",
                "--subgroup", "1"]) == 1                    # order 128 > 64
    assert run(["invert", "--group", "C64xC2"]) == 1        # order 128 > 64
    assert run(["kos", "--group", "C4", "--subgroup", "1", "--ring", "F2",
                "--verify"]) == 1                           # base change from F2
    assert run(["kos", "--group", "C1", "--subgroup", "1",
                "--verify"]) == 1                           # no prime to verify at
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


def test_an_index_on_the_whole_group_must_be_0(capsys):
    # G is the one subgroup of its type: only #0 (or no index) names it
    assert run(["kos", "--group", "C4", "--subgroup", "C4#3"]) == 1
    assert "subgroup index 3 out of range (0..0)" in capsys.readouterr().err
    assert run(["kos", "--group", "C2xC2", "--subgroup", "C2xC2#1"]) == 1
    assert "subgroup index 1 out of range (0..0)" in capsys.readouterr().err
    assert run(["kos", "--group", "C4", "--subgroup", "C4#0"]) == 0
    assert json.loads(out_of(capsys))["inputs"]["subgroup"] == "C4"


def test_solver_cap_gives_exit_1(capsys, monkeypatch):
    # the cap is an input bound the user sets, not a failed theory check
    monkeypatch.setenv("TTPERM_MAX_RANK", "2")
    code = run(["invert", "--group", "C2", "--ring", "Z"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: total rank 10 exceeds TTPERM_MAX_RANK=2\n"


def test_kos_honors_the_solver_cap_without_solving(capsys, monkeypatch):
    # kos solves nothing, and verify_koszul still checks the cap on the
    # restriction it certifies
    monkeypatch.setenv("TTPERM_MAX_RANK", "1000")
    assert run(["kos", "--group", "C2xC2", "--subgroup", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: total rank 1246 exceeds "
                            "TTPERM_MAX_RANK=1000\n")


@pytest.mark.parametrize("argv", [
    ["twisted", "--group", "C2", "--ring", "F2", "--max-twist", "1"],
    ["kos", "--group", "C2", "--subgroup", "1"],
], ids=["twisted", "kos"])
@pytest.mark.parametrize("cap", ["abc", "-1", "2.5"])
def test_malformed_solver_cap_gives_exit_1(capsys, monkeypatch, argv, cap):
    # hom_group (twisted) and verify_koszul (kos) both read the cap
    monkeypatch.setenv("TTPERM_MAX_RANK", cap)
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: TTPERM_MAX_RANK=%r is not a "
                            "nonnegative integer\n" % cap)


def test_exit_2_means_a_failed_check_not_a_bug(capsys, monkeypatch):
    from ttperm import koszul
    argv = ["kos", "--group", "C2", "--subgroup", "1", "--verify"]
    # a corrupted certificate: an empty rational contraction
    monkeypatch.setattr(koszul, "_average_homotopy", lambda X, raw: {})
    assert run(argv) == 2
    data = json.loads(out_of(capsys))
    assert data == {"error": "CertificateError",
                    "message": "homotopy identity fails at degree 0"}

    def fails(message, error):
        def check(G, H, p):
            raise error(message)
        return check

    monkeypatch.setattr(koszul, "base_change_koszul_check",
                        fails("not acyclic", koszul.KoszulVerificationError))
    assert run(argv) == 2
    assert json.loads(out_of(capsys))["error"] == "KoszulVerificationError"
    # an internal assert is a bug: it propagates instead of exiting 2
    monkeypatch.setattr(koszul, "base_change_koszul_check",
                        fails("internal", AssertionError))
    with pytest.raises(AssertionError, match="internal"):
        run(argv)


def test_theory_check_failure_exits_2_with_its_payload(capsys, monkeypatch):
    from ttperm import twisted
    monkeypatch.setattr(twisted, "homology_profile",
                        lambda X: {0: (1, ()), 1: (0, (2,))})
    assert run(["twisted", "--group", "C2", "--ring", "F2",
                "--max-twist", "1"]) == 2
    assert json.loads(out_of(capsys)) == {
        "error": "TheoryCheckFailure",
        "message": "tensor power homology not concentrated: "
                   "{0: (1, ()), 1: (0, (2,))}"}


def test_verify_round_trip(tmp_path, capsys):
    for argv in (
        ["kos", "--group", "C4", "--subgroup", "C2", "--ring", "Z",
         "--verify"],
        ["twisted", "--group", "C2", "--ring", "F2", "--max-twist", "2"],
        ["twisted", "--group", "C3", "--ring", "Z", "--max-twist", "3",
         "--shift-min", "-4", "--shift-max", "-1"],
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


def _tampered_report(tmp_path, capsys, argv, edit):
    """Run argv, apply ``edit`` to its JSON report and save it; the
    path of the saved report."""
    assert run(argv) == 0
    data = json.loads(out_of(capsys))
    edit(data)
    path = tmp_path / "report.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_verify_replays_inputs_through_the_parser(tmp_path, capsys):
    # a malformed input is a usage error with the parser's message, not
    # a traceback
    path = _tampered_report(
        tmp_path, capsys, ["kos", "--group", "C2", "--subgroup", "1",
                           "--ring", "F2"],
        lambda data: data["inputs"].pop("subgroup"))
    assert run(["verify", path]) == 1
    assert "the following arguments are required: --subgroup" in \
        capsys.readouterr().err
    path = _tampered_report(
        tmp_path, capsys, ["twisted", "--group", "C2", "--ring", "F2",
                           "--max-twist", "1"],
        lambda data: data["inputs"].update(max_twist="x"))
    assert run(["verify", path]) == 1
    assert "argument --max-twist: invalid int value: 'x'" in \
        capsys.readouterr().err


def test_verify_reports_a_missing_poset_as_a_mismatch(tmp_path, capsys):
    path = _tampered_report(
        tmp_path, capsys, ["spectrum", "--group", "C6"],
        lambda data: data.pop("poset"))
    assert run(["verify", path]) == 2
    out = json.loads(out_of(capsys))
    assert out["mismatches"] == ["/poset only in fresh run"]


def test_reports_match_recorded_digests(capsys):
    # Reports must stay byte-identical across refactors; the digests are
    # the benchmark's, recorded from the seed.
    expected = json.loads(EXPECTED.read_text())
    for command in ("invert --group C3 --ring Z",
                    "invert --group C5 --ring Z",
                    "invert --group C7 --ring Z",
                    "twisted --group C2 --ring F2 --max-twist 4",
                    "twisted --group C2xC2 --ring F2 --max-twist 2",
                    "twisted --group C3 --ring Z --max-twist 5 "
                    "--shift-min -10 --shift-max 0",
                    "spectrum --group C32 --format dot",
                    "spectrum --group C48 --format text",
                    "spectrum --group C60",
                    "kos --group C9 --subgroup C3 --verify"):
        code = run(command.split())
        digest = hashlib.sha256(out_of(capsys).encode()).hexdigest()
        assert (code, digest) == (expected[command]["exit"],
                                  expected[command]["sha256"]), command


# stdout digests of the tables whose products are laid out by the
# canonical powers, recorded before those powers were built from their
# cached factors
_TABLE_DIGESTS = {
    "twisted --group C2xC2xC2 --ring F2 --max-twist 3":
        "943cba8f4d8db3d633ea07076bb2d5107696a4f5e5e13a946bd3bedb09f2acfd",
    "twisted --group C3xC3 --ring F3 --max-twist 3":
        "1b171d000cbc492b545ffd49bd783c1b0c4df3b3605678cce519861223eb7327",
    "twisted --group C5xC5 --ring F5 --max-twist 1":
        "7e480ab45b6d815ef7eeda2e9b1651e6aaf6a3db647e955754235b0a8e875151",
}


@pytest.mark.parametrize("command", sorted(_TABLE_DIGESTS))
def test_product_tables_match_recorded_digests(capsys, command):
    assert run(command.split()) == 0
    digest = hashlib.sha256(out_of(capsys).encode()).hexdigest()
    assert digest == _TABLE_DIGESTS[command]


# stdout digests of invert reports and of single-subgroup tables over Z
# and F_3, recorded while every identification they use was searched in
# the chain-map lattice
_IDENTIFICATION_DIGESTS = {
    "invert --group C6 --ring Z":
        "d151e28c4315383b4bef51209e4dd28c7b9e37ddbd7c7f86194574df5925743f",
    "invert --group Q8 --ring Z":
        "a4df0ce942282352b700b12ee3192c6b7673a378b522dac074c1403b5bd32643",
    "invert --group D8 --ring F2 --subgroup C4":
        "240dcfa01cdb7c8c2f45675614307ef484752f3e353b886dd7b943cdc774e4d9",
    "invert --group C27 --ring F3":
        "e81c85166161f167eaed11d97b8839f143d21729b24e3d7f8c0545e61e09e7de",
    "invert --group C3xC3 --ring F3":
        "95886b8414bb11a11d80a0126d44aff0ce41b44d520990edcae17faf80623305",
    "twisted --group C2 --ring Z --max-twist 4":
        "3206670b41b6dc74342ccd30060f8c078aa2a477a2d01e46b5f80da2ec0ddfbd",
    "twisted --group C3 --ring F3 --max-twist 4":
        "d5252a040513a469e40eee2d5e32da56be9a6b06e16b7b47467c431d29c8117b",
}


@pytest.mark.parametrize("command", sorted(_IDENTIFICATION_DIGESTS))
def test_built_identifications_match_recorded_digests(capsys, command):
    assert run(command.split()) == 0
    digest = hashlib.sha256(out_of(capsys).encode()).hexdigest()
    assert digest == _IDENTIFICATION_DIGESTS[command]


# stdout digests of spectra, recorded while subgroups were enumerated,
# conjugated and tested for sections element by element
_SPECTRUM_DIGESTS = {
    "spectrum --group C27":
        "c79f1d845d47d8bcb2e0d0b53506c28573d879685dd4ca30d77b60393b6af4b7",
    "spectrum --group C49 --format dot":
        "a2802adb21dd50b0cd3f9761f8be77449dd71d89a7748d0d7063ee410cb98592",
    "spectrum --group C36 --format text":
        "6ae760f5914915796ac8b7fb31c7437bf9948de0107004073f5bc711c62a6d71",
    "spectrum --group C63":
        "da2b5a88010d7e91b1689cda3a1aa652c8f336361c071c69d235ee8c63f02d5c",
    "spectrum --group C16 --format dot":
        "c64ac7a05f718407a48faf339556e7a7e2165ede0202eee4db74902d233b8322",
    "spectrum --group C8":
        "87a853ae51898b88b9e719e3df84f9a3b98e858d79d5c072541e86bc7d061c52",
}


@pytest.mark.parametrize("command", sorted(_SPECTRUM_DIGESTS))
def test_spectra_match_recorded_digests(capsys, command):
    assert run(command.split()) == 0
    digest = hashlib.sha256(out_of(capsys).encode()).hexdigest()
    assert digest == _SPECTRUM_DIGESTS[command]


def test_tables_and_invert_search_no_chain_map_lattice(monkeypatch, capsys):
    # their identifications are built and promoted, never searched
    from ttperm import homotopy, twisted
    calls = []
    for module, name in ((homotopy, "find_homotopy_equivalence"),
                         (twisted, "find_homotopy_equivalence"),
                         (homotopy, "chain_map_space")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, real=real, name=name:
                            calls.append(name) or real(*args))
    for command in ("invert --group C3 --ring Z",
                    "invert --group C5 --ring Z",
                    "invert --group C7 --ring Z",
                    "twisted --group C3 --ring Z --max-twist 5 "
                    "--shift-min -10 --shift-max 0",
                    "twisted --group C2 --ring F2 --max-twist 4",
                    "twisted --group C2xC2 --ring F2 --max-twist 2",
                    "twisted --group C3xC3 --ring F3 --max-twist 2"):
        assert run(command.split()) == 0, command
        capsys.readouterr()
    assert calls == []


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
