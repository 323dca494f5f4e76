"""Symbolic specialization posets for cyclic groups.

Two independent constructions must agree: the direct description
(assemble_over_Z seeds one V per subgroup step plus the ordinary
points) and the colimit over sections (sections_colimit /
orbit_colimit).  Frozen point ids and closures below were derived by
hand from the V-shape rules in the module docstring.
"""

import json

import pytest

from ttperm.grp import (Subgroup, conjugation_table, cyclic,
                        sections_category, subgroups)
from ttperm import spectrum as sp
from ttperm.spectrum import (SpcPoint, SymbolicPoset, seed_cyclic_field,
                             assemble_over_Z, sections_colimit,
                             orbit_colimit, labeled_isomorphic, validate,
                             export_json, export_dot, TAG_CLOSED,
                             TAG_GENERIC)


C2_IDS = ["(0)", "P(1,0,2)", "P(1,dperf,2)", "P(C2,0,2)", "family:2"]

C2_CLOSURE = [
    ("(0)", "P(1,0,2)"), ("(0)", "P(C2,0,2)"), ("(0)", "family:2"),
    ("P(1,dperf,2)", "P(1,0,2)"), ("P(1,dperf,2)", "P(C2,0,2)"),
]

C4_IDS = ["(0)", "P(1,0,2)", "P(1,dperf,2)", "P(C2,0,2)",
          "P(C2,dperf,2)", "P(C4,0,2)", "family:2"]

C4_CLOSURE = [
    ("(0)", "P(1,0,2)"), ("(0)", "P(C2,0,2)"), ("(0)", "P(C4,0,2)"),
    ("(0)", "family:2"),
    ("P(1,dperf,2)", "P(1,0,2)"), ("P(1,dperf,2)", "P(C2,0,2)"),
    ("P(C2,dperf,2)", "P(C2,0,2)"), ("P(C2,dperf,2)", "P(C4,0,2)"),
]

C6_IDS = ["(0)", "P(1,0,2)", "P(1,0,3)", "P(1,dperf,2)", "P(1,dperf,3)",
          "P(C2,0,2)", "P(C3,0,3)", "family:2,3"]

C6_CLOSURE = [
    ("(0)", "P(1,0,2)"), ("(0)", "P(1,0,3)"), ("(0)", "P(C2,0,2)"),
    ("(0)", "P(C3,0,3)"), ("(0)", "family:2,3"),
    ("P(1,dperf,2)", "P(1,0,2)"), ("P(1,dperf,2)", "P(C2,0,2)"),
    ("P(1,dperf,3)", "P(1,0,3)"), ("P(1,dperf,3)", "P(C3,0,3)"),
]


def ids_and_closure(P):
    ids = {k: P.points[k].point_id() for k in P.points}
    return (sorted(ids.values()),
            sorted((ids[a], ids[b]) for a, b in P.closure_pairs()))


def test_point_identity_and_labels():
    z = SpcPoint.zero()
    assert z.point_id() == "(0)"
    assert z.is_ordinary()
    q = SpcPoint.prime(7)
    assert q.point_id() == "(7)"
    f = SpcPoint.family((3, 2))
    assert f.point_id() == "family:2,3"
    assert "not in {2,3}" in f.label()
    m = SpcPoint.modular("C2", TAG_CLOSED, 2)
    assert m.point_id() == "P(C2,0,2)"
    assert not m.is_ordinary()
    assert SpcPoint.modular("C2", TAG_CLOSED, 2) == m
    assert SpcPoint.modular("C2", TAG_GENERIC, 2) != m


def test_seed_cyclic_field_point_count():
    for n in (1, 2, 3):
        for p in (2, 3, 5):
            P = seed_cyclic_field(n, p)
            assert len(P.points) == 2 * n + 1, (n, p)
            gens = [pt for pt in P.point_list() if pt.tag == TAG_GENERIC]
            assert len(gens) == n
            # each generic point specializes to exactly two closed ones
            for g in gens:
                targets = [b for (a, b) in P.closure_pairs()
                           if a == g.key()]
                assert len(targets) == 2
            assert validate(P)["ok"]


def test_direct_and_colimit_constructions_agree():
    for order in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27):
        G = cyclic(order)
        direct = assemble_over_Z(G)
        colim = sections_colimit(G)
        assert labeled_isomorphic(direct, colim), order
        assert validate(colim)["ok"]


def test_frozen_c2():
    ids, closure = ids_and_closure(orbit_colimit(cyclic(2)))
    assert ids == C2_IDS
    assert closure == C2_CLOSURE


def test_frozen_c4():
    ids, closure = ids_and_closure(orbit_colimit(cyclic(4)))
    assert ids == C4_IDS
    assert closure == C4_CLOSURE


def test_frozen_c6():
    ids, closure = ids_and_closure(orbit_colimit(cyclic(6)))
    assert ids == C6_IDS
    assert closure == C6_CLOSURE


def test_colimit_builds_each_subgroup_once(monkeypatch):
    built = []
    init = Subgroup.__init__

    def counting_init(self, *args):
        built.append(1)
        init(self, *args)

    monkeypatch.setattr(Subgroup, "__init__", counting_init)
    G = cyclic(64)
    sections_colimit(G)
    assert len(built) == len(subgroups(G)) == 7


def test_colimit_replays_each_conjugation_row_once(monkeypatch):
    # the seed-image loop reads each source seed's points once per
    # applied morphism; the images depend on g only through its row of
    # the conjugation table
    replays = []

    class CountingPoints(dict):
        def items(self):
            replays.append(1)
            return super().items()

    seed = sp._section_seed

    def counting_seed(*args):
        P = seed(*args)
        P.points = CountingPoints(P.points)
        return P

    monkeypatch.setattr(sp, "_section_seed", counting_seed)
    G = cyclic(64)
    colim = sections_colimit(G)
    conj = conjugation_table(G)
    cat = sections_category(G, 2)
    triples = {(f.source.key(), f.target.key(), conj[f.g])
               for f in cat.morphisms}
    assert len(cat.morphisms) == 1600
    assert len(replays) == len(triples) < len(cat.morphisms)
    assert labeled_isomorphic(colim, assemble_over_Z(G))


def test_modular_point_counts():
    for p in (2, 3):
        for n, count in ((1, 3), (2, 5), (3, 7)):
            P = orbit_colimit(cyclic(p ** n))
            assert len(P.modular_points()) == count, (p, n)
            assert len(P.ordinary_points()) == 2


def test_c12_counts():
    P = orbit_colimit(cyclic(12))
    assert len(P.point_list()) == 10
    assert len(P.modular_points(2)) == 5
    assert len(P.modular_points(3)) == 3
    assert validate(P)["ok"]


def test_no_zero_to_generic_specialization():
    # (0) specializes to every closed modular point but to no generic one
    for order in (2, 4, 9, 6):
        P = orbit_colimit(cyclic(order))
        zkey = SpcPoint.zero().key()
        for pt in P.modular_points():
            pair = (zkey, pt.key())
            if pt.tag == TAG_CLOSED:
                assert pair in P.closure_pairs(), (order, pt.point_id())
            else:
                assert pair not in P.closure_pairs(), (order, pt.point_id())


def test_trivial_group_spectrum():
    P = orbit_colimit(cyclic(1))
    ids, closure = ids_and_closure(P)
    assert ids == ["(0)", "family:"]
    assert closure == [("(0)", "family:")]


def test_validator_rejects_mutual_specialization():
    P = seed_cyclic_field(1, 2)
    pts = P.point_list()
    m0, m1 = [pt for pt in pts if pt.tag == TAG_CLOSED]
    P.add_relation(m0, m1)
    P.add_relation(m1, m0)
    report = validate(P)
    assert not report["ok"]
    kinds = {k for k, _ in report["violations"]}
    assert "T0" in kinds or "irreflexive" in kinds


def test_validator_rejects_family_as_source():
    P = assemble_over_Z(cyclic(2))
    fam = [pt for pt in P.point_list() if pt.kind == "family"][0]
    m = [pt for pt in P.point_list() if pt.kind == "modular"
         and pt.tag == TAG_CLOSED][0]
    P.relations.add((fam.key(), m.key()))
    report = validate(P)
    assert not report["ok"]
    assert "family_relation" in {k for k, _ in report["violations"]}


def test_validator_rejects_modular_to_ordinary():
    P = assemble_over_Z(cyclic(2))
    m = [pt for pt in P.point_list() if pt.kind == "modular"][0]
    fam = [pt for pt in P.point_list() if pt.kind == "family"][0]
    P.relations.add((m.key(), fam.key()))
    report = validate(P)
    assert not report["ok"]
    kinds = {k for k, _ in report["violations"]}
    assert "modular_to_ordinary" in kinds or "family_relation" in kinds


def test_validator_rejects_cross_prime():
    P = orbit_colimit(cyclic(6))
    m2 = [pt for pt in P.modular_points(2) if pt.tag == TAG_GENERIC][0]
    m3 = [pt for pt in P.modular_points(3) if pt.tag == TAG_CLOSED][0]
    P.relations.add((m2.key(), m3.key()))
    report = validate(P)
    assert not report["ok"]
    assert "cross_prime" in {k for k, _ in report["violations"]}


def test_export_json_schema():
    P = orbit_colimit(cyclic(6))
    data = json.loads(export_json(P))
    assert set(data) == {"points", "specializations"}
    ids = {pt["id"] for pt in data["points"]}
    assert ids == set(C6_IDS)
    for pt in data["points"]:
        assert set(pt) == {"id", "kind", "label"}
    for a, b in data["specializations"]:
        assert a in ids and b in ids
    assert sorted(map(tuple, data["specializations"])) == C6_CLOSURE


def test_export_json_deterministic():
    a = export_json(orbit_colimit(cyclic(6)))
    b = export_json(orbit_colimit(cyclic(6)))
    assert a == b


def test_export_dot():
    P = orbit_colimit(cyclic(6))
    dot = export_dot(P)
    assert dot.startswith("digraph spc")
    assert '"(0)"' in dot
    # two modular fibers get two distinct colors; ordinary points a third
    colors = {line.split("fontcolor=")[1].split("]")[0]
              for line in dot.splitlines() if "fontcolor=" in line}
    assert len(colors) == 3
    # edges follow the transitive reduction: no (0) -> closed modular
    # edge survives when a generic point provides the path
    assert dot.count("->") == len(P.reduction_pairs())


def test_labeled_isomorphic_is_sensitive():
    A = orbit_colimit(cyclic(2))
    B = orbit_colimit(cyclic(3))
    assert not labeled_isomorphic(A, B)
    assert labeled_isomorphic(A, orbit_colimit(cyclic(2)))


def test_cli_poset_round_trip():
    from ttperm.cli import _poset_from_json
    for order in (2, 6, 12):
        P = orbit_colimit(cyclic(order))
        Q = _poset_from_json(json.loads(export_json(P)))
        assert labeled_isomorphic(P, Q)


_POSET_INVARIANTS = """
import sys
from ttperm.grp import parse_group_name
from ttperm.spectrum import SpcPoint, SymbolicPoset, orbit_colimit

assert sys.flags.optimize
P = SymbolicPoset()
zero = P.add_point(SpcPoint.zero())
for name, broken in (
        ("duplicate", lambda: P.add_point(SpcPoint.zero())),
        ("non-strict", lambda: P.add_relation(zero, zero)),
        ("non-cyclic", lambda: orbit_colimit(parse_group_name("C2xC2")))):
    try:
        broken()
        sys.exit("%s passed" % name)
    except ValueError as exc:
        print(name, exc)
"""


def test_poset_invariants_raise_under_python_O(python_O):
    # internal invariants raise ValueError (a traceback, exit 1 from the
    # CLI), so python -O keeps them
    proc = python_O(_POSET_INVARIANTS)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == [
        "duplicate duplicate point (0)",
        "non-strict specialization relations are strict",
        "non-cyclic spectrum assembly admits cyclic groups only",
    ]
